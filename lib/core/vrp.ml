open Ogc_isa
open Ogc_ir
module Metrics = Ogc_obs.Metrics
module Span = Ogc_obs.Span
module Pool = Ogc_exec.Pool

(* Pass telemetry: fixpoint effort, pass wall time and the width mix the
   re-encoder actually commits — the static face of the paper's Table 1.
   [iterations] counts worklist rounds (sweeps), [visits] counts block
   processings with a non-⊥ input. *)
let m_fixpoint_iters = Metrics.counter "ogc_vrp_fixpoint_iterations_total"
let m_fixpoint_visits = Metrics.counter "ogc_vrp_fixpoint_visits_total"
let m_runs = Metrics.counter "ogc_vrp_runs_total"
let m_pass_seconds = Metrics.histogram "ogc_vrp_pass_seconds"

let m_width_assign =
  List.map
    (fun w ->
      ( w,
        Metrics.counter "ogc_vrp_width_assignments_total"
          ~labels:[ ("width", string_of_int (Width.bits w)) ] ))
    [ Width.W8; Width.W16; Width.W32; Width.W64 ]

type assumption = {
  af : string;
  alabel : Label.t;
  areg : Reg.t;
  arange : Interval.t;
}

type config = {
  useful : bool;
  useful_through_arith : bool;
  assumptions : assumption list;
}

(* Visits of a reached block before its join widens, and sweeps of
   summary refinement over the call graph. *)
let widen_after = 3
let interproc_rounds = 2

(* [useful_through_arith] defaults to on: the paper's introductory example
   (a dependence chain feeding an AND mask computes only one byte) requires
   demand to flow through additions.  In this demand formulation it is
   sound — the low k bits of add/sub/mul/shift-left results depend only on
   the low k bits of their inputs, and every overflow-observing use
   (compare, branch, divide, right shift) demands full width — so the
   §2.2.5 overflow-hiding hazard cannot arise.  Setting it to [false]
   gives the paper-literal conservative variant (kept as an ablation). *)
let default_config =
  {
    useful = true;
    useful_through_arith = true;
    assumptions = [];
  }

let conventional_config = { default_config with useful = false }

type engine = Dense | Naive
type fixpoint_stats = { visits : int; rounds : int }
type summary = { mutable s_args : Interval.t array; mutable s_ret : Interval.t }

(* Analysis facts are dense: one slot per program [iid].  Instruction ids
   are program-unique and below [Prog.next_iid], so lookups are a bounds
   check and an array read, and per-function parallel writers touch
   disjoint indices. *)
type result = {
  ranges : Interval.t option array;
  inputs : (Interval.t * Interval.t) option array;
  reqs : Width.t option array;
  widths : Width.t option array;
  summaries : (string, summary) Hashtbl.t;
  mutable stats : fixpoint_stats;
}

let get arr iid = if iid >= 0 && iid < Array.length arr then arr.(iid) else None

(* --- flow states: one interval per block-crossing register -------------- *)

(* A block's in- and out-states hold one interval per register whose
   value at a block boundary can be observed (the plan's [pregs], see
   {!crossing_regs}); a block's transfer runs on one full-width scratch
   array indexed by register, [1 + Prog.max_reg_of_func f] long, loaded
   from the compact state and stored back to it. *)
let zero_i = Reg.to_int Reg.zero

let sp_range =
  Interval.v Interp.virtual_base
    (Int64.add Interp.virtual_base 0x1_0000_0000L)

let state_equal a b =
  let n = Array.length a in
  let rec go i = i >= n || (Interval.equal a.(i) b.(i) && go (i + 1)) in
  go 0

(* Every state in the engine keeps [zero] pinned to the constant 0 (the
   constructors below establish it; transfers, refinements and
   assumptions never write it), so joins and widening leave its slot
   unchanged. *)
let state_join_into dst src =
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- Interval.join dst.(i) src.(i)
  done

(* Directional threshold widening: an unstable bound jumps to the next
   width landmark, so compares at narrower operation widths can still
   refine the widened range (jumping straight to ±2^63 would make every
   W32 compare non-refinable). *)
let hi_landmarks = [ 127L; 32767L; 0x7FFF_FFFFL; Int64.max_int ]
let lo_landmarks = [ -128L; -32768L; Int64.neg 0x8000_0000L; Int64.min_int ]

let widen_hi n =
  List.find (fun l -> Int64.compare n l <= 0) hi_landmarks

let widen_lo n =
  List.find (fun l -> Int64.compare l n <= 0) lo_landmarks

(* [nxt] holds the join of [old] and the fresh input; rewrite it to the
   widened state in place. *)
let widen_into ~old nxt =
  for i = 0 to Array.length nxt - 1 do
    let o = (old.(i) : Interval.t) and n = (nxt.(i) : Interval.t) in
    let lo =
      if Int64.compare n.Interval.lo o.Interval.lo < 0 then
        widen_lo n.Interval.lo
      else o.Interval.lo
    in
    let hi =
      if Int64.compare n.Interval.hi o.Interval.hi > 0 then
        widen_hi n.Interval.hi
      else o.Interval.hi
    in
    if not (Int64.equal lo n.Interval.lo && Int64.equal hi n.Interval.hi)
    then nxt.(i) <- Interval.v lo hi
  done

(* --- per-function analysis ------------------------------------------------ *)

type fctx = {
  gaddr : (string, int64) Hashtbl.t;
  (* Return summary visible for a callee at this point of the schedule. *)
  ret_of : string -> Interval.t;
  (* This function's own argument-register ranges (length = arity). *)
  args_of : Interval.t array;
  (* Functions by name (callee arity lookup at [Call] transfers). *)
  func_of : (string, Prog.func) Hashtbl.t;
  config : config;
  (* When collecting: join actual argument ranges into callee accumulators. *)
  arg_acc : (string, Interval.t array) Hashtbl.t option;
  (* When recording: fill result tables. *)
  record : result option;
}

let operand_range state = function
  | Instr.Reg r -> state.(Reg.to_int r)
  | Instr.Imm v -> Interval.const v

let set state r v = if Reg.to_int r <> zero_i then state.(Reg.to_int r) <- v

(* Top-level (closure-free) recording helper for the transfer hot loop. *)
let record_def_at record iid rng a b =
  match record with
  | Some res ->
    res.ranges.(iid) <- Some rng;
    res.inputs.(iid) <- Some (a, b)
  | None -> ()

(* Transfer one instruction over a mutable state copy. *)
let transfer ctx state (ins : Prog.ins) =
  let record_def rng a b = record_def_at ctx.record ins.iid rng a b in
  match ins.op with
  | Instr.Alu { op; width; src1; src2; dst } ->
    let a = state.(Reg.to_int src1) and b = operand_range state src2 in
    let r = Interval.forward_alu op width a b in
    record_def r a b;
    set state dst r
  | Instr.Cmp { op; width; src1; src2; dst } ->
    let a = state.(Reg.to_int src1) and b = operand_range state src2 in
    let r = Interval.forward_cmp_op op width a b in
    record_def r a b;
    set state dst r
  | Instr.Cmov { width; test; src; dst; _ } ->
    let t = state.(Reg.to_int test) and s = operand_range state src in
    let r = Interval.forward_cmov width ~old:state.(Reg.to_int dst) ~src:s in
    record_def r t s;
    set state dst r
  | Instr.Msk { width; src; dst } ->
    let a = state.(Reg.to_int src) in
    let r = Interval.forward_msk width a in
    record_def r a (Interval.const 0L);
    set state dst r
  | Instr.Sext { width; src; dst } ->
    let a = state.(Reg.to_int src) in
    let r = Interval.forward_sext width a in
    record_def r a (Interval.const 0L);
    set state dst r
  | Instr.Li { dst; imm } ->
    let r = Interval.const imm in
    record_def r r r;
    set state dst r
  | Instr.La { dst; symbol } ->
    let r =
      match Hashtbl.find_opt ctx.gaddr symbol with
      | Some a -> Interval.const a
      | None -> sp_range
    in
    record_def r r r;
    set state dst r
  | Instr.Load { width; signed; base; dst; _ } ->
    let a = state.(Reg.to_int base) in
    let r = Interval.forward_load width ~signed in
    record_def r a (Interval.const 0L);
    set state dst r
  | Instr.Store { base; src; _ } ->
    let a = state.(Reg.to_int base) and s = state.(Reg.to_int src) in
    record_def Interval.top a s
  | Instr.Call { callee } ->
    (* Collect actual argument ranges for interprocedural propagation. *)
    (match (ctx.arg_acc, Hashtbl.find_opt ctx.func_of callee) with
    | Some acc, Some cf ->
      let cur =
        match Hashtbl.find_opt acc callee with
        | Some a -> a
        | None ->
          let a =
            Array.init cf.arity (fun i -> state.(Reg.to_int (Reg.arg i)))
          in
          Hashtbl.replace acc callee a;
          a
      in
      Array.iteri
        (fun i r -> cur.(i) <- Interval.join r state.(Reg.to_int (Reg.arg i)))
        cur
    | _ -> ());
    let ret_range = ctx.ret_of callee in
    List.iter (fun r -> set state r Interval.top) Reg.caller_saved;
    set state Reg.ret ret_range;
    record_def ret_range Interval.top Interval.top
  | Instr.Emit { src } ->
    record_def Interval.top state.(Reg.to_int src) (Interval.const 0L)

(* Refinements carried by a CFG edge leaving a conditional branch. *)
let edge_refinements (b : Prog.block) ~taken =
  match b.term with
  | Prog.Jump _ | Prog.Return -> []
  | Prog.Branch { cond; src; _ } ->
    (* Locate the last definition of [src] in the block body; when it is a
       compare whose operands are not redefined afterwards, the compare
       operands can be refined too (paper §2.2.4). *)
    let body = b.body in
    let n = Array.length body in
    let defines r (ins : Prog.ins) = List.exists (Reg.equal r) (Instr.defs ins.op) in
    let rec last_def r i =
      if i < 0 then None
      else if defines r body.(i) then Some i
      else last_def r (i - 1)
    in
    let cmp_refine =
      match last_def src (n - 1) with
      | None -> []
      | Some i -> (
        match body.(i).op with
        | Instr.Cmp { op; width; src1; src2; dst } ->
          (* Refinement reads the operand ranges from the block's
             out-state (each side's new range is computed against the
             other's), so an operand participates only while its exit
             range is still its range at the compare: not redefined
             between the compare and the exit — including by the compare
             itself, whose [dst] aliases an operand both in the [x == k]
             guards VRS emits ([cmpeq x, r27, r27]) and routinely after
             register allocation, where the compare result reuses an
             operand's register.  A clobbered operand can still provide
             {e context} for refining the other side when it was loaded
             as a constant below the compare ([li #k] feeds most bound
             checks): the constant is carried as an immediate. *)
          let redefined r =
            let rec go j =
              j < n && (defines r body.(j) || go (j + 1))
            in
            Reg.equal dst r || go (i + 1)
          in
          let rec const_below r j depth =
            if depth > 4 then None
            else
              match last_def r (j - 1) with
              | None -> None
              | Some k -> (
                match body.(k).op with
                | Instr.Li { imm; _ } -> Some imm
                | Instr.Alu
                    { op = Instr.Or; src1 = m; src2 = Instr.Imm 0L; _ } ->
                  const_below m k (depth + 1)
                | _ -> None)
          in
          let context r =
            if not (redefined r) then Some (Instr.Reg r)
            else
              Option.map (fun c -> Instr.Imm c) (const_below r i 0)
          in
          let lhs_ctx = context src1 in
          let rhs_ctx =
            match src2 with Instr.Imm _ -> Some src2 | Instr.Reg r -> context r
          in
          let ref1 = (not (redefined src1)) && rhs_ctx <> None in
          let ref2 =
            (match src2 with
            | Instr.Reg r -> not (redefined r)
            | Instr.Imm _ -> false)
            && lhs_ctx <> None
          in
          if ref1 || ref2 then
            let lhs_read = Option.value lhs_ctx ~default:(Instr.Reg src1) in
            let rhs_read = Option.value rhs_ctx ~default:src2 in
            [ (op, width, lhs_read, rhs_read, ref1, ref2) ]
          else []
        | _ -> [])
    in
    [ `Cond (cond, src, taken) ]
    @ List.map (fun c -> `Cmp (c, cond, src, taken)) cmp_refine

(* Every register an edge refinement reads or refines. *)
let refinement_regs refs =
  let reg_of = function Instr.Reg r -> [ r ] | Instr.Imm _ -> [] in
  List.concat_map
    (function
      | `Cond (_, src, _) -> [ src ]
      | `Cmp ((_, _, lhs_op, rhs_op, _, _), _, src, _) ->
        (src :: reg_of lhs_op) @ reg_of rhs_op)
    refs

(* Apply edge refinements to a compact state copy whose slot for
   register [r] is [slot r]; [false] means the edge is infeasible. *)
let apply_refinements slot state refs =
  let infeasible = ref false in
  let range_of_operand = function
    | Instr.Reg r -> state.(slot r)
    | Instr.Imm v -> Interval.const v
  in
  let refine r v = if not (Reg.equal r Reg.zero) then state.(slot r) <- v in
  List.iter
    (fun r ->
      match r with
      | `Cond (cond, src, taken) -> (
        match Interval.refine_cond cond state.(slot src) ~taken with
        | Some rng -> refine src rng
        | None -> infeasible := true)
      | `Cmp ((op, width, lhs_op, rhs_op, ref1, ref2), cond, src, taken) -> (
        (* The branch tests the compare result against zero; determine
           whether the compare held on this edge. *)
        match Interval.refine_cond cond state.(slot src) ~taken with
        | None -> infeasible := true
        | Some rng -> (
          match Interval.is_const rng with
          | Some c ->
            let holds = not (Int64.equal c 0L) in
            let lhs = range_of_operand lhs_op in
            let rhs = range_of_operand rhs_op in
            (match lhs_op with
            | Instr.Reg r1 when ref1 -> (
              match Interval.refine_cmp_lhs op width ~lhs ~rhs ~holds with
              | Some l -> refine r1 l
              | None -> infeasible := true)
            | Instr.Reg _ | Instr.Imm _ -> ());
            (match rhs_op with
            | Instr.Reg r2 when ref2 -> (
              match Interval.refine_cmp_rhs op width ~lhs ~rhs ~holds with
              | Some rr -> refine r2 rr
              | None -> infeasible := true)
            | Instr.Reg _ | Instr.Imm _ -> ())
          | None -> ())))
    refs;
  not !infeasible

(* --- per-function plan ----------------------------------------------------- *)

(* Everything about a function's control flow that the fixpoint needs but
   that never changes across interprocedural rounds: the CFG, the reverse
   postorder and its inverse (the worklist priority), predecessor edges
   with their refinements already extracted from the branch/compare
   pattern (the old engine re-derived them on every input recomputation
   of every sweep), deduplicated successors for worklist pushes, block
   assumptions, whether the CFG has any cycle at all, and the registers
   the flow states carry.  Plans are immutable and shared across parallel
   tasks. *)
type edge = {
  e_pred : int;
  e_apply : Interval.t array -> bool;  (* refine in place; false = infeasible *)
}

type plan = {
  pf : Prog.func;
  nb : int;
  pnregs : int;  (* scratch size: 1 + the function's highest register index *)
  pregs : int array;  (* state slot -> register index *)
  pslot : int array;  (* register index -> state slot, -1 when not carried *)
  rpo : int array;  (* worklist priority -> block index *)
  prio : int array;  (* block index -> worklist priority *)
  pedges : edge array array;  (* per block, in [Cfg.preds] order *)
  psuccs : int array array;  (* per block, deduplicated *)
  passume : (int * Interval.t) list array;  (* per block: (slot, range) *)
  cyclic : bool;
  pcfg : Cfg.t;
}

(* The block-crossing registers of [f]: those whose value at a block
   boundary can be observed.  A register is crossing when some block
   reads it before writing it (per [Instr.uses], so a [Cmov]'s old [dst]
   and every argument register of a [Call] count), a terminator reads it
   (a branch's [src], [ret] at a return), an edge refinement reads or
   refines it ([extra]: compare operands are read from the predecessor's
   out-state even when dead after the block, and a refinement can prove
   an edge infeasible), or an assumption constrains it ([extra] too);
   [zero] always is.  Every other register is written in each block
   before that block reads it, so its block-entry value is never
   observed: transfers on the scratch array see only values the block
   itself wrote, and the crossing part of a block's out-state is a
   function of the crossing part of its in-state alone.  Sorted. *)
let crossing_regs (f : Prog.func) ~nregs ~extra =
  let mark = Array.make nregs false in
  let see r = mark.(Reg.to_int r) <- true in
  see Reg.zero;
  List.iter see extra;
  (* [written.(r) = bi]: block [bi] has written [r] at this point. *)
  let written = Array.make nregs (-1) in
  Array.iteri
    (fun bi (b : Prog.block) ->
      Array.iter
        (fun (ins : Prog.ins) ->
          List.iter
            (fun r -> if written.(Reg.to_int r) <> bi then see r)
            (Instr.uses ins.op);
          List.iter (fun r -> written.(Reg.to_int r) <- bi) (Instr.defs ins.op))
        b.body;
      match b.term with
      | Prog.Branch { src; _ } -> see src
      | Prog.Return -> see Reg.ret
      | Prog.Jump _ -> ())
    f.blocks;
  let regs = ref [] in
  for r = nregs - 1 downto 0 do
    if mark.(r) then regs := r :: !regs
  done;
  Array.of_list !regs

(* [Dense] carries the block-crossing registers only; [Naive] carries
   every register, so it stays an independent reference for that
   restriction. *)
let make_plan config engine (f : Prog.func) =
  let cfg = Cfg.of_func f in
  let nb = Array.length f.blocks in
  let nregs = 1 + Prog.max_reg_of_func f in
  let rpo = Array.of_list (List.map Label.to_int (Cfg.reverse_postorder cfg)) in
  let prio = Array.make (max nb 1) 0 in
  Array.iteri (fun pos bi -> prio.(bi) <- pos) rpo;
  let pred_refs =
    Array.init nb (fun bi ->
        let l = Label.of_int bi in
        Cfg.preds cfg l
        |> List.map (fun p ->
               let pi = Label.to_int p in
               let pb = f.blocks.(pi) in
               let taken =
                 match pb.term with
                 | Prog.Branch { if_true; _ } when Label.equal if_true l -> true
                 | Prog.Branch _ | Prog.Jump _ | Prog.Return -> false
               in
               (* A branch with identical targets contributes both edges;
                  using [taken] for the true side is sound because the
                  join of the two refinements over-approximates either. *)
               (pi, edge_refinements pb ~taken)))
  in
  let assumes =
    Array.init nb (fun bi ->
        List.filter
          (fun a ->
            String.equal a.af f.fname && Label.equal a.alabel (Label.of_int bi))
          config.assumptions)
  in
  let pregs =
    match engine with
    | Naive -> Array.init nregs Fun.id
    | Dense ->
      let refined =
        List.concat (Array.to_list pred_refs)
        |> List.concat_map (fun (_, refs) -> refinement_regs refs)
      and assumed =
        List.concat (Array.to_list assumes) |> List.map (fun a -> a.areg)
      in
      crossing_regs f ~nregs ~extra:(refined @ assumed)
  in
  let pslot = Array.make nregs (-1) in
  Array.iteri (fun k r -> pslot.(r) <- k) pregs;
  let slot r = pslot.(Reg.to_int r) in
  let pedges =
    Array.map
      (fun edges ->
        List.map
          (fun (pi, refs) ->
            { e_pred = pi; e_apply = (fun s -> apply_refinements slot s refs) })
          edges
        |> Array.of_list)
      pred_refs
  in
  let psuccs =
    Array.init nb (fun bi ->
        Cfg.succs cfg (Label.of_int bi)
        |> List.map Label.to_int
        |> List.sort_uniq Int.compare
        |> Array.of_list)
  in
  let passume =
    Array.map
      (List.filter_map (fun a ->
           if Reg.equal a.areg Reg.zero then None
           else Some (slot a.areg, a.arange)))
      assumes
  in
  let scc = Scc.of_cfg cfg in
  { pf = f; nb; pnregs = nregs; pregs; pslot; rpo; prio; pedges; psuccs;
    passume; cyclic = Scc.has_cycle scc; pcfg = cfg }

(* A compact state with every carried register at ⊤ except [zero]. *)
let state_top plan =
  let s = Array.make (Array.length plan.pregs) Interval.top in
  s.(plan.pslot.(zero_i)) <- Interval.const 0L;
  s

(* Minimal binary min-heap over worklist priorities. *)
module Heap = struct
  type t = { mutable a : int array; mutable n : int }

  let create cap = { a = Array.make (max cap 1) 0; n = 0 }
  let is_empty h = h.n = 0

  let push h x =
    if h.n = Array.length h.a then begin
      let a' = Array.make (2 * h.n) 0 in
      Array.blit h.a 0 a' 0 h.n;
      h.a <- a'
    end;
    h.a.(h.n) <- x;
    h.n <- h.n + 1;
    let i = ref (h.n - 1) in
    while
      !i > 0
      &&
      let p = (!i - 1) / 2 in
      h.a.(p) > h.a.(!i)
    do
      let p = (!i - 1) / 2 in
      let t = h.a.(p) in
      h.a.(p) <- h.a.(!i);
      h.a.(!i) <- t;
      i := p
    done

  let pop h =
    let r = h.a.(0) in
    h.n <- h.n - 1;
    h.a.(0) <- h.a.(h.n);
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and rg = (2 * !i) + 2 in
      let s = ref !i in
      if l < h.n && h.a.(l) < h.a.(!s) then s := l;
      if rg < h.n && h.a.(rg) < h.a.(!s) then s := rg;
      if !s = !i then continue := false
      else begin
        let t = h.a.(!s) in
        h.a.(!s) <- h.a.(!i);
        h.a.(!i) <- t;
        i := !s
      end
    done;
    r
end

(* Analyze one function to a fixpoint; returns the join of the return-value
   ranges over all return sites, plus (visits, rounds) effort counters.

   Flow states live in preallocated per-block buffers ([nb] compact
   states over the plan's registers); a block processing loads its
   in-state into the full-width scratch array, transfers in place and
   stores the carried registers back as its out-state, so the steady
   state allocates nothing per step.  Joins, widening and change tests
   touch carried registers only.

   The [Dense] engine is a priority worklist with a round barrier, built
   to be {e sweep-equivalent} to the [Naive] reference (one full
   reverse-postorder pass per round): within a round pops ascend in
   priority (= RPO position), a changed block schedules forward successors
   into the current round and back-edge successors into the next, and the
   widening trigger compares rounds since the block first left ⊥ — exactly
   the visit count the naive engine accumulates, since it revisits every
   reached block once per sweep.  Blocks whose inputs did not change are
   simply never scheduled; processing them would be the identity (widening
   included: widening an unchanged join keeps both bounds).  The same
   holds for a change confined to registers [Dense] does not carry:
   re-processing would be the identity on every crossing register, so
   the sparse state drops only such visits.  Reverse postorder is a
   topological order of the SCC condensation (see {!Scc}), so acyclic
   regions converge in a single visit and a fully acyclic function
   finishes in one round with no narrowing needed. *)
let analyze_func ctx plan ~engine : Interval.t * int * int =
  let f = plan.pf in
  let nb = plan.nb in
  let ns = Array.length plan.pregs in
  let ins_s = Array.init nb (fun _ -> state_top plan) in
  let out_s = Array.init nb (fun _ -> state_top plan) in
  (* [reached.(bi)] — the block's in-state has left ⊥. *)
  let reached = Array.make nb false in
  let top = state_top plan in
  let fresh = state_top plan
  and tmp = state_top plan
  and nxt = state_top plan in
  let scratch = Array.make plan.pnregs Interval.top in
  let entry =
    let s = state_top plan in
    let init r v =
      let k = plan.pslot.(Reg.to_int r) in
      if k >= 0 then s.(k) <- v
    in
    init Reg.sp sp_range;
    Array.iteri (fun i r -> init (Reg.arg i) r) ctx.args_of;
    s
  in
  (* Fresh input state of block [bi], into [fresh]: join of refined
     predecessor outputs; [false] (⊥) when no predecessor is reached. *)
  let compute_in bi =
    let started = ref false in
    if bi = 0 then begin
      Array.blit entry 0 fresh 0 ns;
      started := true
    end;
    let edges = plan.pedges.(bi) in
    for k = 0 to Array.length edges - 1 do
      let e = edges.(k) in
      if reached.(e.e_pred) then begin
        Array.blit out_s.(e.e_pred) 0 tmp 0 ns;
        if e.e_apply tmp then
          if !started then state_join_into fresh tmp
          else begin
            Array.blit tmp 0 fresh 0 ns;
            started := true
          end
      end
    done;
    !started
    && begin
         List.iter
           (fun (k, arange) ->
             match Interval.meet fresh.(k) arange with
             | Some m -> fresh.(k) <- m
             | None -> fresh.(k) <- arange)
           plan.passume.(bi);
         true
       end
  in
  (* Transfer block [bi] from compact in-state [st]; the out-state is
     left in [scratch]. *)
  let transfer_block bi st =
    let regs = plan.pregs in
    for k = 0 to ns - 1 do
      scratch.(regs.(k)) <- st.(k)
    done;
    let body = f.blocks.(bi).body in
    for k = 0 to Array.length body - 1 do
      transfer ctx scratch body.(k)
    done
  in
  let store_out bi =
    let regs = plan.pregs and out = out_s.(bi) in
    for k = 0 to ns - 1 do
      out.(k) <- scratch.(regs.(k))
    done
  in
  (* One block processing: recompute the input, join/widen against the
     previous in-state, and on change re-run the block transfer. *)
  let process ~widen bi =
    if not (compute_in bi) then `Bot
    else begin
      let cur = ins_s.(bi) in
      let next =
        if reached.(bi) then begin
          for k = 0 to ns - 1 do
            nxt.(k) <- Interval.join cur.(k) fresh.(k)
          done;
          if widen then widen_into ~old:cur nxt;
          nxt
        end
        else fresh
      in
      if (not reached.(bi)) || not (state_equal next cur) then begin
        Array.blit next 0 cur 0 ns;
        reached.(bi) <- true;
        transfer_block bi cur;
        store_out bi;
        `Changed
      end
      else `Unchanged
    end
  in
  let visits = ref 0 and rounds = ref 0 in
  let wa = widen_after in
  (match engine with
  | Naive ->
    (* Reference engine: full reverse-postorder sweeps until no in-state
       changes; widening after [widen_after] visits of a reached block. *)
    let vcount = Array.make nb 0 in
    let changed = ref true in
    while !changed do
      incr rounds;
      changed := false;
      Array.iter
        (fun bi ->
          match process ~widen:(vcount.(bi) > wa) bi with
          | `Bot -> ()
          | `Unchanged ->
            vcount.(bi) <- vcount.(bi) + 1;
            incr visits
          | `Changed ->
            vcount.(bi) <- vcount.(bi) + 1;
            incr visits;
            changed := true)
        plan.rpo
    done
  | Dense ->
    let heap = Heap.create nb in
    let in_heap = Array.make nb false in
    let next_flag = Array.make nb false in
    let next_round = ref [] in
    (* Round of a block's first non-⊥ processing; -1 until reached. *)
    let first_round = Array.make nb (-1) in
    for p = 0 to nb - 1 do
      Heap.push heap p;
      in_heap.(plan.rpo.(p)) <- true
    done;
    while not (Heap.is_empty heap) do
      incr rounds;
      while not (Heap.is_empty heap) do
        let p = Heap.pop heap in
        let bi = plan.rpo.(p) in
        in_heap.(bi) <- false;
        let widen =
          first_round.(bi) >= 0 && !rounds - first_round.(bi) > wa
        in
        match process ~widen bi with
        | `Bot -> ()
        | `Unchanged ->
          incr visits;
          if first_round.(bi) < 0 then first_round.(bi) <- !rounds
        | `Changed ->
          incr visits;
          if first_round.(bi) < 0 then first_round.(bi) <- !rounds;
          let succs = plan.psuccs.(bi) in
          for k = 0 to Array.length succs - 1 do
            let s = succs.(k) in
            let sp = plan.prio.(s) in
            if sp > p then begin
              if not in_heap.(s) then begin
                Heap.push heap sp;
                in_heap.(s) <- true
              end
            end
            else if not next_flag.(s) then begin
              next_flag.(s) <- true;
              next_round := s :: !next_round
            end
          done
      done;
      List.iter
        (fun s ->
          next_flag.(s) <- false;
          if not in_heap.(s) then begin
            Heap.push heap plan.prio.(s);
            in_heap.(s) <- true
          end)
        !next_round;
      next_round := []
    done);
  (* Two descending (narrowing) sweeps; each recomputed state remains a
     sound over-approximation because it is derived from sound inputs.
     An acyclic CFG never widened and is already at the exact fixpoint,
     so the sweeps are skipped (they would recompute identical states).
     A block whose recomputed input turns infeasible keeps its previous
     (sound) states. *)
  if plan.cyclic then
    for _ = 1 to 2 do
      Array.iter
        (fun bi ->
          if compute_in bi then begin
            Array.blit fresh 0 ins_s.(bi) 0 ns;
            transfer_block bi fresh;
            store_out bi
          end)
        plan.rpo
    done;
  (* Final sweep: collect the return range, and re-run transfers where
     they still have something to say.  Blocks never reached (⊥) are
     processed conservatively from ⊤ so that dead code keeps sound
     (wide) widths — and so their call sites contribute the same ⊤
     argument joins in every engine and round.  For reached blocks,
     [out_s] already holds the transfer of the stabilized input (so it
     supplies the return range: [ret] is carried wherever a block
     returns), and the re-run is needed only when recording (the record
     callback must see the stabilized states); without recording it
     would recompute identical states and re-join identical call
     arguments — a no-op. *)
  let recording = ctx.record <> None in
  let ret_slot = plan.pslot.(Reg.to_int Reg.ret) in
  let ret = ref None in
  Array.iteri
    (fun bi (b : Prog.block) ->
      if not reached.(bi) then transfer_block bi top
      else begin
        if recording then transfer_block bi ins_s.(bi);
        match b.term with
        | Prog.Return ->
          let r = out_s.(bi).(ret_slot) in
          ret :=
            Some (match !ret with None -> r | Some acc -> Interval.join acc r)
        | Prog.Jump _ | Prog.Branch _ -> ()
      end)
    f.blocks;
  (Option.value ~default:Interval.top !ret, !visits, !rounds)

(* --- useful-width (demand) analysis -------------------------------------- *)

(* [ops.(iid)] is the body instruction with that id, [None] for
   terminators (whose uses always demand the full value). *)
let sound_width_of_def res (ops : Instr.t option array) (ud : Usedef.t) di =
  let d = Usedef.def ud di in
  match d.Usedef.site with
  | Usedef.Entry -> Width.W64
  | Usedef.At iid -> (
    (* Calls define every caller-saved register; only the return value's
       range is known.  All other defs have a single destination whose
       range was recorded under the instruction id. *)
    let opv = if iid < Array.length ops then ops.(iid) else None in
    let is_call = match opv with Some (Instr.Call _) -> true | _ -> false in
    if is_call && not (Reg.equal d.Usedef.dreg Reg.ret) then Width.W64
    else
      (* A re-encoded instruction delivers the low [w] bits of its
         result and extends them to the full register; the def's value
         is intact only when that extension recovers it.  Every narrow
         op sign-extends except [Msk], which zero-extends, so a [Msk]
         def is bounded by the unsigned width of its range: narrowing
         [msk64 r, r] of a negative value to its (signed) 16-bit width
         would flip it positive. *)
      let width_of =
        match opv with
        | Some (Instr.Msk _) -> Interval.width_unsigned
        | Some _ | None -> Interval.width
      in
      match get res.ranges iid with
      | Some rng -> width_of rng
      | None -> Width.W64)

let demand config ~req_out ~(op : Instr.t) ~(r : Reg.t) =
  (* Width of register [r]'s low bits that instruction [op] can expose to
     its consumers; [req_out] is the useful width of [op]'s own output. *)
  let roles = ref [] in
  let add w = roles := w :: !roles in
  (match op with
  | Instr.Alu { op = aop; src1; src2; _ } ->
    let is1 = Reg.equal r src1 in
    let is2 = match src2 with Instr.Reg x -> Reg.equal r x | Instr.Imm _ -> false in
    (match aop with
    | Instr.And | Instr.Or | Instr.Xor | Instr.Bic ->
      if is1 || is2 then add req_out
    | Instr.Add | Instr.Sub | Instr.Mul ->
      if is1 || is2 then
        add (if config.useful_through_arith then req_out else Width.W64)
    | Instr.Sll ->
      if is1 then
        add (if config.useful_through_arith then req_out else Width.W64);
      if is2 then add Width.W64
    | Instr.Div | Instr.Rem | Instr.Srl | Instr.Sra ->
      if is1 || is2 then add Width.W64)
  | Instr.Cmp { src1; src2; _ } ->
    let is2 = match src2 with Instr.Reg x -> Reg.equal r x | Instr.Imm _ -> false in
    if Reg.equal r src1 || is2 then add Width.W64
  | Instr.Cmov { test; src; dst; _ } ->
    if Reg.equal r test then add Width.W64;
    (match src with
    | Instr.Reg x when Reg.equal r x -> add req_out
    | Instr.Reg _ | Instr.Imm _ -> ());
    if Reg.equal r dst then add req_out
  | Instr.Msk { width; src; _ } ->
    if Reg.equal r src then add (Width.min width req_out)
  | Instr.Sext { width; src; _ } ->
    if Reg.equal r src then add (Width.min width req_out)
  | Instr.Load { base; _ } -> if Reg.equal r base then add Width.W64
  | Instr.Store { width; base; src; _ } ->
    if Reg.equal r base then add Width.W64;
    if Reg.equal r src then add width
  | Instr.Li _ | Instr.La _ -> ()
  | Instr.Call _ -> add Width.W64
  | Instr.Emit _ -> add Width.W64);
  match !roles with [] -> Width.W64 | w :: ws -> List.fold_left Width.max w ws

let useful_pass config res (f : Prog.func) cfg ops =
  let ud = Usedef.compute f cfg in
  let nd = Usedef.num_defs ud in
  let op_of iid = if iid < Array.length ops then ops.(iid) else None in
  let req = Array.init nd (fun di -> sound_width_of_def res ops ud di) in
  (* Useful width of the output of instruction [iid]: max over the reqs of
     the defs it makes (a Call makes many; they are all W64 anyway). *)
  let req_out_of iid =
    match Usedef.defs_of_ins ud iid with
    | [] -> Width.W64
    | ds -> List.fold_left (fun acc d -> Width.max acc req.(d)) Width.W8 ds
  in
  if config.useful then begin
    (* Demand propagation to the greatest fixpoint below the sound
       initialization.  [req] only ever shrinks, so a change-driven
       worklist converges to the same unique fixpoint the full sweeps
       did, touching each def once plus once per upstream shrink instead
       of the whole function per sweep.  [req_out] caches each consumer
       instruction's output demand (the sweeps refolded it per use per
       sweep); when a def shrinks, the cache entry for its instruction is
       refreshed and — only if it moved — the defs feeding that
       instruction are requeued. *)
    let req_out : (int, Width.t) Hashtbl.t = Hashtbl.create 64 in
    let req_out_cached iid =
      match Hashtbl.find_opt req_out iid with
      | Some w -> w
      | None ->
        let w = req_out_of iid in
        Hashtbl.replace req_out iid w;
        w
    in
    let in_queue = Array.make nd false in
    let queue = Queue.create () in
    let enqueue di =
      if not in_queue.(di) then begin
        in_queue.(di) <- true;
        Queue.add di queue
      end
    in
    let refresh_site di =
      match (Usedef.def ud di).Usedef.site with
      | Usedef.Entry -> ()
      | Usedef.At iid -> (
        match Hashtbl.find_opt req_out iid with
        | None -> () (* never consulted: next lookup recomputes *)
        | Some old ->
          let nw = req_out_of iid in
          if not (Width.equal old nw) then begin
            Hashtbl.replace req_out iid nw;
            match op_of iid with
            | None -> ()
            | Some op ->
              List.iter
                (fun r ->
                  List.iter enqueue
                    (Usedef.reaching_uses ud ~use_iid:iid ~reg:r))
                (Instr.uses op)
          end)
    in
    for di = 0 to nd - 1 do
      enqueue di
    done;
    while not (Queue.is_empty queue) do
      let di = Queue.pop queue in
      in_queue.(di) <- false;
      let d = Usedef.def ud di in
      let uses = Usedef.uses_of_def ud di in
      let dem =
        List.fold_left
          (fun acc (use_iid, r) ->
            match op_of use_iid with
            | Some op ->
              Width.max acc (demand config ~req_out:(req_out_cached use_iid) ~op ~r)
            | None -> Width.W64 (* terminator use: full value *))
          Width.W8 uses
      in
      (* Dead defs (no uses) demand nothing — except the stack pointer
         which is live across the function boundary (the caller observes
         its full value).  The return register needs no such pin: every
         [Return] records a terminator use of it, so exactly the defs
         that reach the caller demand the full width — pinning every def
         of r0 would defeat narrowing now that the allocator hands it
         out as an ordinary color. *)
      let dem =
        if Reg.equal d.Usedef.dreg Reg.sp then Width.W64
        else if uses = [] then Width.W8
        else dem
      in
      let nw = Width.min req.(di) dem in
      if not (Width.equal nw req.(di)) then begin
        req.(di) <- nw;
        refresh_site di
      end
    done
  end;
  (* Publish per-instruction useful widths. *)
  Prog.iter_ins f (fun _ ins ->
      match Usedef.defs_of_ins ud ins.iid with
      | [] -> ()
      | ds ->
        let w = List.fold_left (fun acc d -> Width.max acc req.(d)) Width.W8 ds in
        res.reqs.(ins.iid) <- Some w)

(* --- width assignment ------------------------------------------------------ *)

let assign_widths res (f : Prog.func) =
  Prog.iter_ins f (fun _ ins ->
      let rng iid = get res.ranges iid in
      let req iid =
        match get res.reqs iid with Some w -> w | None -> Width.W64
      in
      let sound iid =
        match rng iid with Some r -> Interval.width r | None -> Width.W64
      in
      let ins_rngs iid =
        match get res.inputs iid with
        | Some (a, b) -> (Interval.width a, Interval.width b)
        | None -> (Width.W64, Width.W64)
      in
      let w =
        match ins.op with
        | Instr.Alu { op; width = orig; _ } -> (
          match op with
          | Instr.And | Instr.Or | Instr.Xor | Instr.Bic
          | Instr.Add | Instr.Sub | Instr.Mul ->
            (* Low-bit determined: the useful width of the output is
               enough; never widen beyond the encoded width. *)
            Some (Width.min orig (Width.min (req ins.iid) (sound ins.iid)))
          | Instr.Sll ->
            let _, wb = ins_rngs ins.iid in
            Some (Width.min orig
                    (Width.max wb (Width.min (req ins.iid) (sound ins.iid))))
          | Instr.Div | Instr.Rem | Instr.Srl | Instr.Sra ->
            let wa, wb = ins_rngs ins.iid in
            Some (Width.min orig (Width.max (Width.max wa wb) (sound ins.iid))))
        | Instr.Cmp { width = orig; _ } ->
          let wa, wb = ins_rngs ins.iid in
          Some (Width.min orig (Width.max wa wb))
        | Instr.Cmov { width = orig; _ } ->
          Some (Width.min orig (Width.min (req ins.iid) (sound ins.iid)))
        | Instr.Msk { width = orig; _ } | Instr.Sext { width = orig; _ } ->
          Some (Width.min orig (req ins.iid))
        | Instr.Li _ | Instr.La _ ->
          Some (Width.min (req ins.iid) (sound ins.iid))
        | Instr.Load { width; _ } | Instr.Store { width; _ } -> Some width
        | Instr.Call _ | Instr.Emit _ -> None
      in
      match w with
      | Some w -> res.widths.(ins.iid) <- Some w
      | None -> ())

(* --- function-granular result cache ---------------------------------------- *)

(* The final recorded pass is, per function, a pure function of the
   function's code and its analysis inputs: the argument ranges, each
   callee's visible return range, the addresses [La] resolves, the
   config (with its per-function assumptions) and the engine.
   [Fn_cache] memoizes that pass across whole-program runs, keyed by a
   digest of exactly those inputs.  Recorded facts are stored
   positionally (the [Prog.iter_ins] order), not by instruction id, so
   a fragment survives the program-global iid renumbering that editing
   an unrelated function (or a re-parse) causes.  The interprocedural
   summary rounds always run — they are whole-program by nature and
   their result feeds the digests. *)
module Fn_cache = struct
  let m_hit =
    Metrics.counter "ogc_vrp_fn_cache_total" ~labels:[ ("outcome", "hit") ]

  let m_run =
    Metrics.counter "ogc_vrp_fn_cache_total" ~labels:[ ("outcome", "run") ]

  type fragment = {
    fr_ranges : Interval.t option array;  (* per body-instruction position *)
    fr_inputs : (Interval.t * Interval.t) option array;
    fr_reqs : Width.t option array;
    fr_widths : Width.t option array;
    fr_ret : Interval.t;
    (* Effort counters replayed into [fixpoint_stats], keeping the
       result — introspection included — identical to a live run. *)
    fr_visits : int;
    fr_rounds : int;
  }

  type t = {
    m : Mutex.t;
    capacity : int;
    entries : (string, fragment) Hashtbl.t;
    order : string Queue.t;  (* insertion order: FIFO eviction *)
    mutable hits : int;
    mutable runs : int;
  }

  let create ?(capacity = 4096) () =
    {
      m = Mutex.create ();
      capacity = max capacity 1;
      entries = Hashtbl.create 256;
      order = Queue.create ();
      hits = 0;
      runs = 0;
    }

  let locked t f =
    Mutex.lock t.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

  let find t key =
    locked t (fun () ->
        match Hashtbl.find_opt t.entries key with
        | Some fr ->
          t.hits <- t.hits + 1;
          Metrics.incr m_hit;
          Some fr
        | None ->
          t.runs <- t.runs + 1;
          Metrics.incr m_run;
          None)

  let install t key fr =
    locked t (fun () ->
        if not (Hashtbl.mem t.entries key) then begin
          while Hashtbl.length t.entries >= t.capacity do
            match Queue.take_opt t.order with
            | Some old -> Hashtbl.remove t.entries old
            | None -> Hashtbl.reset t.entries
          done;
          Hashtbl.replace t.entries key fr;
          Queue.add key t.order
        end)

  (* (hits, runs): fragment replays vs. live final passes since create. *)
  let stats t = locked t (fun () -> (t.hits, t.runs))
end

(* Digest of everything the function's recorded pass can observe.  The
   body is rendered through the (iid-free) assembly printer, so two
   programs whose instruction ids differ but whose code and analysis
   inputs agree share a digest. *)
let func_digest ~config ~engine ~gaddr ~args ~ret_of ~callees
    (f : Prog.func) =
  let b = Buffer.create 1024 in
  let add s =
    Buffer.add_string b s;
    Buffer.add_char b '\x00'
  in
  let interval (i : Interval.t) =
    Printf.sprintf "%Ld:%Ld" i.Interval.lo i.Interval.hi
  in
  add (match engine with Dense -> "dense" | Naive -> "naive");
  add (Printf.sprintf "%b %b" config.useful config.useful_through_arith);
  List.iter
    (fun a ->
      if String.equal a.af f.fname then
        add
          (Printf.sprintf "as %d %d %s" (Label.to_int a.alabel)
             (Reg.to_int a.areg) (interval a.arange)))
    config.assumptions;
  add f.fname;
  add (string_of_int f.arity);
  add (string_of_int f.frame_size);
  Array.iter (fun r -> add (interval r)) args;
  Array.iter
    (fun (blk : Prog.block) ->
      add (string_of_int (Label.to_int blk.label));
      Array.iter
        (fun (ins : Prog.ins) ->
          add (Instr.to_string ins.op);
          match ins.op with
          | Instr.La { symbol; _ } ->
            add
              (match Hashtbl.find_opt gaddr symbol with
              | Some a -> Printf.sprintf "la %Ld" a
              | None -> "la ?")
          | _ -> ())
        blk.body;
      add (Asm.terminator_to_string blk.term))
    f.blocks;
  List.iter
    (fun c -> add (Printf.sprintf "c %s %s" c (interval (ret_of c))))
    callees;
  Digest.to_hex (Digest.string (Buffer.contents b))

let extract_fragment res (f : Prog.func) ~ret ~visits ~rounds =
  let n = ref 0 in
  Prog.iter_ins f (fun _ _ -> incr n);
  let fr =
    {
      Fn_cache.fr_ranges = Array.make !n None;
      fr_inputs = Array.make !n None;
      fr_reqs = Array.make !n None;
      fr_widths = Array.make !n None;
      fr_ret = ret;
      fr_visits = visits;
      fr_rounds = rounds;
    }
  in
  let pos = ref 0 in
  Prog.iter_ins f (fun _ ins ->
      fr.Fn_cache.fr_ranges.(!pos) <- get res.ranges ins.iid;
      fr.Fn_cache.fr_inputs.(!pos) <- get res.inputs ins.iid;
      fr.Fn_cache.fr_reqs.(!pos) <- get res.reqs ins.iid;
      fr.Fn_cache.fr_widths.(!pos) <- get res.widths ins.iid;
      incr pos);
  fr

let replay_fragment res (f : Prog.func) (fr : Fn_cache.fragment) =
  let pos = ref 0 in
  Prog.iter_ins f (fun _ ins ->
      res.ranges.(ins.iid) <- fr.Fn_cache.fr_ranges.(!pos);
      res.inputs.(ins.iid) <- fr.Fn_cache.fr_inputs.(!pos);
      res.reqs.(ins.iid) <- fr.Fn_cache.fr_reqs.(!pos);
      res.widths.(ins.iid) <- fr.Fn_cache.fr_widths.(!pos);
      incr pos)

(* --- driver ---------------------------------------------------------------- *)

(* Interprocedural schedule.  Within one summary-refinement round the
   summaries are frozen (return and argument summaries are only mutated
   between rounds), so the per-function analyses are independent and run
   under [Pool.map]; each task joins call-site argument ranges into its
   own private accumulator and the driver merges them with the (fully
   commutative and associative) interval join, so the result is identical
   at any [--jobs].

   The final recorded pass of the old sequential engine updated each
   function's return summary immediately, so a later function saw the
   {e final} returns of every earlier one.  To parallelize without
   changing a single bit of output, functions are levelized over the
   "calls an earlier-indexed function" relation: within a level no
   function's result can influence another's, and each task resolves a
   callee's return from the finals of earlier levels when the callee has
   a smaller index, else from the round-fixpoint snapshot — exactly the
   view the sequential schedule provides.

   [finish res plan] runs right after a function's live recorded pass,
   in the same task ({!analyze} hangs demand and width assignment
   there); a cached fragment replays its effect. *)
let solve ~config ~engine ~jobs ~fn_cache ~finish (p : Prog.t) : result =
  let jobs = match jobs with None -> 1 | Some n -> Pool.resolve_jobs (Some n) in
  let n_iid = max p.next_iid 1 in
  let res =
    {
      ranges = Array.make n_iid None;
      inputs = Array.make n_iid None;
      reqs = Array.make n_iid None;
      widths = Array.make n_iid None;
      summaries = Hashtbl.create 16;
      stats = { visits = 0; rounds = 0 };
    }
  in
  List.iter
    (fun (f : Prog.func) ->
      Hashtbl.replace res.summaries f.fname
        { s_args = Array.make f.arity Interval.top; s_ret = Interval.top })
    p.funcs;
  let gaddr : (string, int64) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (s, a) -> Hashtbl.replace gaddr s a) (Interp.global_addresses p);
  let func_of : (string, Prog.func) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (f : Prog.func) -> Hashtbl.replace func_of f.fname f) p.funcs;
  let funcs = Array.of_list p.funcs in
  let nf = Array.length funcs in
  let plans =
    Array.of_list (Pool.map ~jobs (make_plan config engine) p.funcs)
  in
  let cg = Callgraph.compute p in
  let add_stats v r =
    res.stats <- { visits = res.stats.visits + v; rounds = res.stats.rounds + r }
  in
  let args_of (f : Prog.func) =
    match Hashtbl.find_opt res.summaries f.fname with
    | Some s -> s.s_args
    | None -> Array.make f.arity Interval.top
  in
  let summary_ret name =
    match Hashtbl.find_opt res.summaries name with
    | Some s -> s.s_ret
    | None -> Interval.top
  in
  let indices = List.init nf Fun.id in
  for _round = 1 to interproc_rounds do
    (* One sweep: recompute every return summary and collect call-site
       argument ranges with the current (frozen) summaries. *)
    let tasks =
      Pool.map ~jobs
        (fun i ->
          let f = funcs.(i) in
          let acc = Hashtbl.create 8 in
          let ctx =
            { gaddr; ret_of = summary_ret; args_of = args_of f; func_of;
              config; arg_acc = Some acc; record = None }
          in
          let ret, v, r = analyze_func ctx plans.(i) ~engine in
          (f.fname, ret, acc, v, r))
        indices
    in
    List.iter
      (fun (fname, ret, _, v, r) ->
        add_stats v r;
        match Hashtbl.find_opt res.summaries fname with
        | Some s -> s.s_ret <- ret
        | None -> ())
      tasks;
    let merged = Hashtbl.create 16 in
    List.iter
      (fun (_, _, acc, _, _) ->
        Hashtbl.iter
          (fun callee a ->
            match Hashtbl.find_opt merged callee with
            | None -> Hashtbl.replace merged callee (Array.copy a)
            | Some m -> Array.iteri (fun i r -> m.(i) <- Interval.join m.(i) r) a)
          acc)
      tasks;
    List.iter
      (fun (f : Prog.func) ->
        match Hashtbl.find_opt res.summaries f.fname with
        | None -> ()
        | Some s ->
          if Callgraph.is_recursive cg f.fname then
            s.s_args <- Array.make f.arity Interval.top
          else (
            match Hashtbl.find_opt merged f.fname with
            | Some a -> s.s_args <- a
            | None -> () (* never called: keep ⊤ *)))
      p.funcs
  done;
  (* Final recorded pass per function, levelized so the sequential
     summary-visibility order is preserved. *)
  let index_of = Hashtbl.create 16 in
  Array.iteri (fun i (f : Prog.func) -> Hashtbl.replace index_of f.fname i) funcs;
  let level = Array.make (max nf 1) 0 in
  Array.iteri
    (fun i (f : Prog.func) ->
      List.iter
        (fun callee ->
          match Hashtbl.find_opt index_of callee with
          | Some j when j < i -> level.(i) <- max level.(i) (level.(j) + 1)
          | Some _ | None -> ())
        (Callgraph.callees cg f.fname))
    funcs;
  let snapshot_ret = Array.map (fun (f : Prog.func) -> summary_ret f.fname) funcs in
  let finals : Interval.t option array = Array.make (max nf 1) None in
  let max_level = Array.fold_left max 0 level in
  let by_level = Array.make (max_level + 1) [] in
  for i = nf - 1 downto 0 do
    by_level.(level.(i)) <- i :: by_level.(level.(i))
  done;
  for lv = 0 to max_level do
    let results =
      Pool.map ~jobs
        (fun i ->
          let f = funcs.(i) in
          let ret_of name =
            match Hashtbl.find_opt index_of name with
            | Some j when j < i -> (
              match finals.(j) with Some r -> r | None -> snapshot_ret.(j))
            | Some j -> snapshot_ret.(j)
            | None -> Interval.top
          in
          let run_live () =
            let ctx =
              { gaddr; ret_of; args_of = args_of f; func_of; config;
                arg_acc = None; record = Some res }
            in
            let ret, v, r = analyze_func ctx plans.(i) ~engine in
            finish res plans.(i);
            (ret, v, r)
          in
          match fn_cache with
          | None ->
            let ret, v, r = run_live () in
            (i, ret, v, r)
          | Some fc -> (
            let key =
              func_digest ~config ~engine ~gaddr ~args:(args_of f) ~ret_of
                ~callees:(Callgraph.callees cg f.fname) f
            in
            match Fn_cache.find fc key with
            | Some fr ->
              replay_fragment res f fr;
              (i, fr.Fn_cache.fr_ret, fr.Fn_cache.fr_visits,
               fr.Fn_cache.fr_rounds)
            | None ->
              let ret, v, r = run_live () in
              Fn_cache.install fc key
                (extract_fragment res f ~ret ~visits:v ~rounds:r);
              (i, ret, v, r)))
        by_level.(lv)
    in
    List.iter (fun (i, ret, v, r) -> finals.(i) <- Some ret; add_stats v r) results
  done;
  Array.iteri
    (fun i (f : Prog.func) ->
      match (Hashtbl.find_opt res.summaries f.fname, finals.(i)) with
      | Some s, Some ret -> s.s_ret <- ret
      | _ -> ())
    funcs;
  Metrics.add m_fixpoint_iters (float_of_int res.stats.rounds);
  Metrics.add m_fixpoint_visits (float_of_int res.stats.visits);
  res

(* Ranges only: what the spill-slot width oracle reads. *)
let ranges p =
  Span.with_ ~name:"vrp:ranges" (fun () ->
      solve ~config:default_config ~engine:Dense ~jobs:None ~fn_cache:None
        ~finish:(fun _ _ -> ()) p)

let analyze ?(config = default_config) ?(engine = Dense) ?jobs ?fn_cache
    (p : Prog.t) : result =
  let ops : Instr.t option array = Array.make (max p.next_iid 1) None in
  Prog.iter_all_ins p (fun _ _ ins -> ops.(ins.iid) <- Some ins.op);
  solve ~config ~engine ~jobs ~fn_cache p ~finish:(fun res plan ->
      useful_pass config res plan.pf plan.pcfg ops;
      assign_widths res plan.pf)

let range_of res iid = get res.ranges iid
let useful_width_of res iid = get res.reqs iid
let width_of res iid = get res.widths iid
let fixpoint_stats res = res.stats

let defs_analyzed res =
  Array.fold_left
    (fun n o -> match o with Some _ -> n + 1 | None -> n)
    0 res.ranges

let apply res (p : Prog.t) =
  let obs = Metrics.enabled () in
  Prog.iter_all_ins p (fun _ _ ins ->
      match get res.widths ins.iid with
      | None -> ()
      | Some w -> (
        match ins.op with
        | Instr.Alu _ | Instr.Cmp _ | Instr.Cmov _ | Instr.Msk _ | Instr.Sext _
          ->
          ins.op <- Instr.with_width ins.op w;
          if obs then Metrics.incr (List.assoc w m_width_assign)
        | Instr.Li _ | Instr.La _ | Instr.Load _ | Instr.Store _
        | Instr.Call _ | Instr.Emit _ -> ()))

let run ?config ?jobs ?fn_cache p =
  let res, dt =
    Span.timed ~name:"vrp" (fun () ->
        let res = analyze ?config ?jobs ?fn_cache p in
        apply res p;
        res)
  in
  Metrics.incr m_runs;
  Metrics.observe m_pass_seconds dt;
  res

let input_ranges_of res iid = get res.inputs iid

let return_range (res : result) fname =
  Option.map (fun s -> s.s_ret) (Hashtbl.find_opt res.summaries fname)

let pp_summary ppf res =
  let widths_assigned =
    Array.fold_left
      (fun n o -> match o with Some _ -> n + 1 | None -> n)
      0 res.widths
  in
  Format.fprintf ppf "defs analyzed: %d; widths assigned: %d@\n"
    (defs_analyzed res) widths_assigned;
  let counts = Hashtbl.create 4 in
  Array.iter
    (function
      | Some w ->
        let c = Option.value ~default:0 (Hashtbl.find_opt counts w) in
        Hashtbl.replace counts w (c + 1)
      | None -> ())
    res.widths;
  List.iter
    (fun w ->
      Format.fprintf ppf "  width %s: %d@\n" (Width.to_string w)
        (Option.value ~default:0 (Hashtbl.find_opt counts w)))
    Width.all
