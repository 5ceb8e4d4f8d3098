open Ogc_isa
module Metrics = Ogc_obs.Metrics

type def_site = Entry | At of int

type def = { dreg : Reg.t; site : def_site }

(* Every table is an int array indexed by the function's own numbering,
   so building one allocates no per-element block and the chains cost a
   few words per instruction.

   - Instruction [k] counts body instructions and terminators in block
     order (a block's body, then its terminator).  [slot_iid]/[slot_ins]
     map an iid to [k] by open addressing; a function's ids are mostly
     runs of consecutive integers, so the identity hash rarely probes.
   - Definition [d]: 0 .. 31 are the entry pseudo-definitions of the
     architectural registers, body definitions follow in instruction
     order; instruction [k] makes [def_lo.(k)] .. [def_lo.(k+1) - 1].
   - Use site [u]: one register read, in instruction order and
     [Instr.uses] order within one; instruction [k] has [use_lo.(k)] ..
     [use_lo.(k+1) - 1].  Its reaching definitions, ascending, are the
     [reach_n.(u)] entries of [reach] from [reach_lo.(u)]; sites that
     read the same definitions share one slice.
   - Definition [d] is read by the use sites [du.(du_lo.(d))] ..
     [du.(du_lo.(d+1) - 1)], latest first. *)
type t = {
  def_reg : Reg.t array;
  def_iid : int array; (* -1 for an entry pseudo-definition *)
  slot_iid : int array;
  slot_ins : int array; (* -1 for an empty slot *)
  def_lo : int array;
  use_lo : int array;
  use_reg : Reg.t array;
  use_iid : int array;
  reach : int array;
  reach_lo : int array;
  reach_n : int array;
  du : int array;
  du_lo : int array;
}

let m_runs = Metrics.counter "ogc_usedef_runs_total"

let term_uses = function
  | Prog.Branch { src; _ } -> [ src ]
  | Prog.Return -> [ Reg.ret ]
  | Prog.Jump _ -> []

let position t iid =
  let mask = Array.length t.slot_iid - 1 in
  let rec probe i =
    let k = t.slot_ins.(i) in
    if k < 0 || t.slot_iid.(i) = iid then k else probe ((i + 1) land mask)
  in
  probe (iid land mask)

(* An int array that doubles when full. *)
type buf = { mutable a : int array; mutable len : int }

let push b x =
  if b.len = Array.length b.a then begin
    let a = Array.make (2 * b.len) 0 in
    Array.blit b.a 0 a 0 b.len;
    b.a <- a
  end;
  b.a.(b.len) <- x;
  b.len <- b.len + 1

let compute (f : Prog.func) cfg =
  Metrics.incr m_runs;
  let blocks = f.blocks in
  let n = Array.length blocks in
  (* 1. Number instructions, definitions and use sites. *)
  let ni =
    Array.fold_left
      (fun acc (b : Prog.block) -> acc + Array.length b.body + 1)
      0 blocks
  in
  let slots = ref 1 in
  while !slots < 2 * ni do
    slots := 2 * !slots
  done;
  let slot_mask = !slots - 1 in
  let slot_iid = Array.make !slots 0 and slot_ins = Array.make !slots (-1) in
  let def_lo = Array.make (ni + 1) Reg.num_arch in
  let use_lo = Array.make (ni + 1) 0 in
  let nregs = ref Reg.num_arch in
  let see r = if Reg.to_int r >= !nregs then nregs := Reg.to_int r + 1 in
  let k = ref 0 in
  let count iid ds us =
    let i = ref (iid land slot_mask) in
    while slot_ins.(!i) >= 0 && slot_iid.(!i) <> iid do
      i := (!i + 1) land slot_mask
    done;
    slot_iid.(!i) <- iid;
    slot_ins.(!i) <- !k;
    List.iter see ds;
    List.iter see us;
    def_lo.(!k + 1) <- def_lo.(!k) + List.length ds;
    use_lo.(!k + 1) <- use_lo.(!k) + List.length us;
    incr k
  in
  Array.iter
    (fun (b : Prog.block) ->
      Array.iter
        (fun (ins : Prog.ins) ->
          count ins.iid (Instr.defs ins.op) (Instr.uses ins.op))
        b.body;
      count b.term_iid [] (term_uses b.term))
    blocks;
  let nregs = !nregs and nd = def_lo.(ni) and nu = use_lo.(ni) in
  let def_reg =
    Array.init nd (fun d -> if d < Reg.num_arch then Reg.of_int d else Reg.zero)
  in
  let def_iid = Array.make nd (-1) in
  let use_reg = Array.make nu Reg.zero and use_iid = Array.make nu 0 in
  let d = ref Reg.num_arch and u = ref 0 in
  let fill iid ds us =
    List.iter
      (fun r ->
        def_reg.(!d) <- r;
        def_iid.(!d) <- iid;
        incr d)
      ds;
    List.iter
      (fun r ->
        use_reg.(!u) <- r;
        use_iid.(!u) <- iid;
        incr u)
      us
  in
  Array.iter
    (fun (b : Prog.block) ->
      Array.iter
        (fun (ins : Prog.ins) ->
          fill ins.iid (Instr.defs ins.op) (Instr.uses ins.op))
        b.body;
      fill b.term_iid [] (term_uses b.term))
    blocks;
  (* Each register's definitions, ascending: [by_reg.(reg_lo.(r))] ..
     [by_reg.(reg_lo.(r+1) - 1)]. *)
  let reg_lo = Array.make (nregs + 1) 0 in
  Array.iter
    (fun r ->
      let r = Reg.to_int r in
      reg_lo.(r + 1) <- reg_lo.(r + 1) + 1)
    def_reg;
  for r = 0 to nregs - 1 do
    reg_lo.(r + 1) <- reg_lo.(r + 1) + reg_lo.(r)
  done;
  let by_reg = Array.make nd 0 in
  let next = Array.sub reg_lo 0 nregs in
  Array.iteri
    (fun d r ->
      let r = Reg.to_int r in
      by_reg.(next.(r)) <- d;
      next.(r) <- next.(r) + 1)
    def_reg;
  (* A register with more defs than a set has words also gets its defs
     as a set, so killing them, or intersecting them with an in-set, is a
     pass over words rather than over defs.  At most 32 registers
     qualify, so the masks cost fewer words than there are defs. *)
  let words = (nd + 31) / 32 in
  let reg_mask = Array.make nregs None in
  for r = 0 to nregs - 1 do
    if reg_lo.(r + 1) - reg_lo.(r) > words then begin
      let m = Bitset.create nd in
      for j = reg_lo.(r) to reg_lo.(r + 1) - 1 do
        Bitset.set m by_reg.(j)
      done;
      reg_mask.(r) <- Some m
    end
  done;
  (* 2. Block-level gen/kill.  A block kills every def of each register
     it writes except its own last one, which it generates. *)
  let gen = Array.init n (fun _ -> Bitset.create nd) in
  let kill = Array.init n (fun _ -> Bitset.create nd) in
  let last_def = Array.make nregs (-1) in
  k := 0;
  Array.iteri
    (fun bi (b : Prog.block) ->
      let regs = ref [] in
      for i = !k to !k + Array.length b.body - 1 do
        for d = def_lo.(i + 1) - 1 downto def_lo.(i) do
          let r = Reg.to_int def_reg.(d) in
          if last_def.(r) < 0 then regs := r :: !regs;
          last_def.(r) <- d
        done
      done;
      k := !k + Array.length b.body + 1;
      List.iter
        (fun r ->
          (match reg_mask.(r) with
          | Some m -> ignore (Bitset.union_into ~into:kill.(bi) m)
          | None ->
            for j = reg_lo.(r) to reg_lo.(r + 1) - 1 do
              Bitset.set kill.(bi) by_reg.(j)
            done);
          Bitset.clear kill.(bi) last_def.(r);
          Bitset.set gen.(bi) last_def.(r);
          last_def.(r) <- -1)
        !regs)
    blocks;
  (* 3. Iterate to fixpoint: in[b] = U out[p]; out[b] = gen + (in - kill).
     Out-sets start at their first Kleene approximation (gen, plus the
     entry pseudo-defs flowing through block 0) and every recomputation
     works in one scratch set, so the sweeps allocate nothing; a block
     whose in-set is unchanged is skipped outright (its out-set is a pure
     function of it).  Starting above bottom but below the fixpoint
     converges to the same least fixpoint as the from-empty iteration. *)
  let inb = Array.init n (fun _ -> Bitset.create nd) in
  let outb = Array.init n (fun _ -> Bitset.create nd) in
  let entry_bits = Bitset.create nd in
  for d = 0 to Reg.num_arch - 1 do
    Bitset.set entry_bits d
  done;
  let scratch = Bitset.create nd in
  for bi = 0 to n - 1 do
    Bitset.reset scratch;
    if bi = 0 then ignore (Bitset.union_into ~into:scratch entry_bits);
    Bitset.copy_into ~into:inb.(bi) scratch;
    Bitset.diff_into ~into:scratch kill.(bi);
    ignore (Bitset.union_into ~into:scratch gen.(bi));
    Bitset.copy_into ~into:outb.(bi) scratch
  done;
  let rpo = Cfg.reverse_postorder cfg in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        let bi = Label.to_int l in
        Bitset.reset scratch;
        if bi = 0 then ignore (Bitset.union_into ~into:scratch entry_bits);
        List.iter
          (fun p ->
            ignore (Bitset.union_into ~into:scratch outb.(Label.to_int p)))
          (Cfg.preds cfg l);
        if not (Bitset.equal scratch inb.(bi)) then begin
          Bitset.copy_into ~into:inb.(bi) scratch;
          Bitset.diff_into ~into:scratch kill.(bi);
          ignore (Bitset.union_into ~into:scratch gen.(bi));
          if not (Bitset.equal scratch outb.(bi)) then begin
            Bitset.copy_into ~into:outb.(bi) scratch;
            changed := true
          end
        end)
      rpo
  done;
  (* 4. Walk each block to record per-use reaching defs.  A register's
     reaching slice is built only when a use in the block reads it before
     any def in the block does: the block's in-set intersected with that
     register's defs.  A def [d] of [r] makes [r]'s slice the singleton
     [d] (held as [cur_n.(r) = -1], [cur_lo.(r) = d] until a use reads
     it), which is exactly the gen/kill update; [stamp.(r)] names the
     block [r]'s slice belongs to. *)
  let reach = { a = Array.make (max 1 nu) 0; len = 0 } in
  let reach_lo = Array.make nu 0 and reach_n = Array.make nu 0 in
  let cur_lo = Array.make nregs 0 and cur_n = Array.make nregs 0 in
  let stamp = Array.make nregs (-1) in
  let visit bi k =
    for u = use_lo.(k) to use_lo.(k + 1) - 1 do
      let r = Reg.to_int use_reg.(u) in
      if stamp.(r) <> bi then begin
        cur_lo.(r) <- reach.len;
        (match reg_mask.(r) with
        | Some m -> Bitset.iter_inter inb.(bi) m (push reach)
        | None ->
          for j = reg_lo.(r) to reg_lo.(r + 1) - 1 do
            if Bitset.mem inb.(bi) by_reg.(j) then push reach by_reg.(j)
          done);
        cur_n.(r) <- reach.len - cur_lo.(r);
        stamp.(r) <- bi
      end
      else if cur_n.(r) < 0 then begin
        push reach cur_lo.(r);
        cur_lo.(r) <- reach.len - 1;
        cur_n.(r) <- 1
      end;
      reach_lo.(u) <- cur_lo.(r);
      reach_n.(u) <- cur_n.(r)
    done;
    for d = def_lo.(k + 1) - 1 downto def_lo.(k) do
      let r = Reg.to_int def_reg.(d) in
      cur_lo.(r) <- d;
      cur_n.(r) <- -1;
      stamp.(r) <- bi
    done
  in
  k := 0;
  Array.iteri
    (fun bi (b : Prog.block) ->
      for _ = 0 to Array.length b.body do
        visit bi !k;
        incr k
      done)
    blocks;
  (* 5. Invert: each def's use sites, latest first. *)
  let du_lo = Array.make (nd + 1) 0 in
  for u = 0 to nu - 1 do
    for j = reach_lo.(u) to reach_lo.(u) + reach_n.(u) - 1 do
      let d = reach.a.(j) in
      du_lo.(d + 1) <- du_lo.(d + 1) + 1
    done
  done;
  for d = 0 to nd - 1 do
    du_lo.(d + 1) <- du_lo.(d + 1) + du_lo.(d)
  done;
  let du = Array.make du_lo.(nd) 0 in
  let next = Array.sub du_lo 0 nd in
  for u = nu - 1 downto 0 do
    for j = reach_lo.(u) to reach_lo.(u) + reach_n.(u) - 1 do
      let d = reach.a.(j) in
      du.(next.(d)) <- u;
      next.(d) <- next.(d) + 1
    done
  done;
  { def_reg; def_iid; slot_iid; slot_ins; def_lo; use_lo; use_reg; use_iid;
    reach = reach.a; reach_lo; reach_n; du; du_lo }

let num_defs t = Array.length t.def_reg

let def t d =
  let iid = t.def_iid.(d) in
  { dreg = t.def_reg.(d); site = (if iid < 0 then Entry else At iid) }

let defs_of_ins t iid =
  match position t iid with
  | -1 -> []
  | k ->
    let rec latest_first d acc =
      if d = t.def_lo.(k + 1) then acc else latest_first (d + 1) (d :: acc)
    in
    latest_first t.def_lo.(k) []

let reaching_uses t ~use_iid ~reg =
  match position t use_iid with
  | -1 -> []
  | k ->
    let rec find u =
      if u = t.use_lo.(k + 1) then []
      else if Reg.equal t.use_reg.(u) reg then
        List.init t.reach_n.(u) (fun j -> t.reach.(t.reach_lo.(u) + j))
      else find (u + 1)
    in
    find t.use_lo.(k)

let uses_of_def t d =
  List.init
    (t.du_lo.(d + 1) - t.du_lo.(d))
    (fun j ->
      let u = t.du.(t.du_lo.(d) + j) in
      (t.use_iid.(u), t.use_reg.(u)))

let dependents t ~iid =
  let seen = Hashtbl.create 64 in
  let rec expand_def d =
    for j = t.du_lo.(d) to t.du_lo.(d + 1) - 1 do
      let use_iid = t.use_iid.(t.du.(j)) in
      if not (Hashtbl.mem seen use_iid) then begin
        Hashtbl.replace seen use_iid ();
        List.iter expand_def (defs_of_ins t use_iid)
      end
    done
  in
  List.iter expand_def (defs_of_ins t iid);
  seen
