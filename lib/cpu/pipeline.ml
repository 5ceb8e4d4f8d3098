open Ogc_isa
open Ogc_ir
module Ep = Ogc_energy.Energy_params
module Account = Ogc_energy.Account
module Policy = Ogc_gating.Policy
module Metrics = Ogc_obs.Metrics
module Span = Ogc_obs.Span
module Free_list = Ogc_exec.Free_list

(* Timing-model telemetry: where each instruction's latency accrues.
   Stage deltas accumulate in local refs during the simulated run and
   flush to these counters once at the end, so the per-event cost when
   metrics are enabled is four integer adds (and zero when disabled). *)
let m_sim_runs = Metrics.counter "ogc_sim_runs_total"
let m_sim_cycles = Metrics.counter "ogc_sim_cycles_total"
let m_sim_instructions = Metrics.counter "ogc_sim_instructions_total"

let m_stage_cycles =
  List.map
    (fun stage ->
      ( stage,
        Metrics.counter "ogc_sim_stage_cycles_total"
          ~labels:[ ("stage", stage) ] ))
    [ "frontend"; "schedule"; "execute"; "retire" ]

type memory_mode = Tagged | Sign_extend

type stats = {
  cycles : int;
  instructions : int;
  branches : int;
  mispredictions : int;
  icache_misses : int;
  dcache_accesses : int;
  dcache_misses : int;
  l2_misses : int;
  energy : Account.t;
  class_width : (Instr.iclass * Width.t, int) Hashtbl.t;
  opcode_counts : (int, int) Hashtbl.t;
  sigbyte_histogram : int array;
  checksum : int64;
}

(* Cycle-indexed resource reservation with stamped slots, so no
   per-cycle clearing is needed.  The ring must be larger than the
   farthest ahead any instruction can be scheduled.  A slot's stamp is
   [base + cycle]; [reset] moves [base] past every stamp written so far,
   which forgets all reservations in O(1) and lets the next run reuse
   the arrays. *)
module Ring = struct
  let size = 1 lsl 15
  let mask = size - 1

  type t = {
    used : int array;
    stamp : int array;
    mutable base : int;
    mutable top : int;  (* one past the largest stamp written *)
  }

  let create () =
    { used = Array.make size 0; stamp = Array.make size (-1); base = 0; top = 0 }

  let reset t = t.base <- t.top

  let usage t cycle =
    let i = cycle land mask in
    if t.stamp.(i) = t.base + cycle then t.used.(i) else 0

  (* First cycle >= [cycle] with spare capacity; reserves one slot. *)
  let take t ~cycle ~limit =
    let c = ref cycle in
    while usage t !c >= limit do
      incr c
    done;
    let i = !c land mask in
    let s = t.base + !c in
    if t.stamp.(i) <> s then begin
      t.stamp.(i) <- s;
      t.used.(i) <- 0
    end;
    t.used.(i) <- t.used.(i) + 1;
    if s >= t.top then t.top <- s + 1;
    !c
end

(* Each run's five reservation rings (fetch, issue, ALU, mul/div,
   commit), reused across runs as the interpreter reuses its memories. *)
let ring_sets : Ring.t array Free_list.t = Free_list.create ()

(* A static instruction as the timing model sees it, decoded once per
   run on its first commit. *)
type fu = Fu_none | Fu_alu | Fu_muldiv
type kind = Load | Store | Call | Plain

type decoded = {
  op : Instr.t;  (* the decoded instruction, compared by [==] *)
  width : Width.t;
  uses : int array;  (* registers read *)
  defs : int array;  (* registers written *)
  reads : int;  (* register-file reads charged: the first two uses *)
  kind : kind;
  fu : fu;
  occupancy : int;  (* cycles a [Fu_muldiv] operation holds the unit *)
  latency : int;  (* execution latency, except for loads and stores *)
  slot : int;  (* class × width counter *)
  opcode : int;
}

let undecoded =
  { op = Instr.Emit { src = Reg.zero }; width = Width.W64; uses = [||];
    defs = [||]; reads = 0; kind = Plain; fu = Fu_none; occupancy = 0;
    latency = 0; slot = 0; opcode = 0 }

(* Iids index the per-run decode table.  Compiled code numbers them
   densely from 0; an iid outside [0, max_cached_iid) (only hand-written
   assembly has one) is decoded again at every commit instead. *)
let max_cached_iid = 1 lsl 20

let iclasses =
  Instr.
    [| C_add; C_sub; C_mul; C_and; C_or; C_xor; C_shift; C_cmp; C_cmov;
       C_msk; C_load; C_store; C_move; C_call; C_other |]

let widths = Array.of_list Width.all
let n_slots = Array.length iclasses * Array.length widths
let n_opcodes = List.length Encoding.all_opcodes

let slot_of ic w =
  let rec index i = if iclasses.(i) = ic then i else index (i + 1) in
  let rec windex i = if Width.equal widths.(i) w then i else windex (i + 1) in
  (index 0 * Array.length widths) + windex 0

let decode (machine : Machine_config.t) op =
  let uses = Array.of_list (List.map Reg.to_int (Instr.uses op)) in
  let fu, occupancy, latency =
    match op with
    | Instr.Alu { op = Instr.Mul; _ } -> (Fu_muldiv, 1, machine.mul_latency)
    | Instr.Alu { op = Instr.Div | Instr.Rem; _ } ->
      (Fu_muldiv, machine.div_latency, machine.div_latency)
    | Instr.Alu _ | Instr.Cmp _ | Instr.Cmov _ | Instr.Msk _ | Instr.Sext _
    | Instr.Li _ | Instr.La _ -> (Fu_alu, 0, 1)
    | Instr.Load _ | Instr.Store _ -> (Fu_alu, 0, 1) (* address generation *)
    | Instr.Call _ | Instr.Emit _ -> (Fu_none, 0, 1)
  in
  { op;
    width = Instr.width op;
    uses;
    defs = Array.of_list (List.map Reg.to_int (Instr.defs op));
    reads = min 2 (Array.length uses);
    kind =
      (match op with
      | Instr.Load _ -> Load
      | Instr.Store _ -> Store
      | Instr.Call _ -> Call
      | _ -> Plain);
    fu;
    occupancy;
    latency;
    slot = slot_of (Instr.iclass op) (Instr.width op);
    opcode = Encoding.opcode_to_int (Encoding.opcode_of op) }

(* Store readiness by 8-byte word address. *)
module Word_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash w = w land max_int
end)

let ipc s =
  if s.cycles = 0 then 0.0
  else float_of_int s.instructions /. float_of_int s.cycles

let width_classes = Instr.all_alu_classes @ [ Instr.C_move ]

let width_distribution s =
  let totals = Hashtbl.create 4 in
  let grand = ref 0 in
  Hashtbl.iter
    (fun (ic, w) n ->
      if List.mem ic width_classes then begin
        Hashtbl.replace totals w
          (n + Option.value ~default:0 (Hashtbl.find_opt totals w));
        grand := !grand + n
      end)
    s.class_width;
  List.map
    (fun w ->
      ( w,
        float_of_int (Option.value ~default:0 (Hashtbl.find_opt totals w))
        /. float_of_int (max 1 !grand) ))
    Width.all

let simulate ?(machine = Machine_config.default) ?(params = Ep.default)
    ?(memory_mode = Tagged) ?(spill_bytes_of = fun _ -> None) ~policy
    (p : Prog.t) =
  Span.with_ ~name:"simulate"
    ~args:[ ("policy", Ogc_json.Json.Str (Policy.name policy)) ]
  @@ fun () ->
  Free_list.with_ ring_sets ~fits:(fun _ -> true)
    ~make:(fun () -> Array.init 5 (fun _ -> Ring.create ()))
    ~reset:(Array.iter Ring.reset)
  @@ fun rings ->
  let fetch_ring = rings.(0) and issue_ring = rings.(1) and alu_ring = rings.(2)
  and muldiv_ring = rings.(3) and commit_ring = rings.(4) in
  let max (a : int) b = if a >= b then a else b in
  let obs = Metrics.enabled () in
  let st_frontend = ref 0 in
  let st_schedule = ref 0 in
  let st_execute = ref 0 in
  let st_retire = ref 0 in
  (* Per-instruction cycle attribution: fetch→dispatch is front-end,
     dispatch→issue is scheduling (operand/window wait), issue→complete
     is execution, complete→commit is retirement. *)
  let attribute ~f ~dc ~ic ~complete ~cc =
    if obs then begin
      st_frontend := !st_frontend + (dc - f);
      st_schedule := !st_schedule + (ic - dc);
      st_execute := !st_execute + (complete - ic);
      st_retire := !st_retire + (cc - complete)
    end
  in
  let energy = Account.create params in
  let icache = Cache.create machine.icache in
  let dcache = Cache.create machine.dcache in
  let l2 = Cache.create machine.l2 in
  let bpred = Bpred.of_config machine in
  let last_write = Array.make 32 0 in
  (* The single mul/div unit pipelines multiplies but a divide occupies it
     for its full latency (real integer dividers are not pipelined). *)
  let muldiv_free = ref 0 in
  (* Memory dependences: a load may not issue before the last store to the
     same 8-byte word has produced its data (no speculative memory
     disambiguation).  Keyed by word address. *)
  let store_ready = Word_tbl.create 4096 in
  (* Branch target buffer: taken control transfers whose target is not
     cached cost a front-end bubble even when the direction is right. *)
  let btb = Cache.create { Machine_config.size_bytes = 4096; ways = 4;
                           line_bytes = 4 } in
  let btb_bubble = 2 in
  let rob_commit = Array.make machine.window_size 0 in
  let n_dispatched = ref 0 in
  let fetch_head = ref 0 in
  let last_fetch_line = ref (-1) in
  let last_dispatch = ref 0 in
  let last_commit = ref 0 in
  let instructions = ref 0 in
  let branches = ref 0 in
  let mispredictions = ref 0 in
  let icache_misses = ref 0 in
  let dcache_accesses = ref 0 in
  let dcache_misses = ref 0 in
  let l2_misses = ref 0 in
  (* Decoded instructions by iid, and the class × width and opcode
     counters with each counter's first-seen order, so the tables built
     at the end are the ones per-instruction inserts would have built. *)
  let decoded =
    ref (Array.make (min max_cached_iid (max 1 p.next_iid)) undecoded)
  in
  let slot_counts = Array.make n_slots 0 in
  let slot_order = Array.make n_slots 0 and n_slot_order = ref 0 in
  let opcode_totals = Array.make n_opcodes 0 in
  let opcode_order = Array.make n_opcodes 0 and n_opcode_order = ref 0 in
  let sighist = Array.make 8 0 in
  let tags = Policy.tag_bits policy in
  let mem_tags =
    match memory_mode with
    | Tagged -> Policy.memory_tag_bits policy
    | Sign_extend -> 0
  in
  let decoded_of iid op =
    let tbl = !decoded in
    if iid >= 0 && iid < Array.length tbl && tbl.(iid).op == op then tbl.(iid)
    else begin
      let d = decode machine op in
      if iid >= 0 && iid < max_cached_iid then begin
        if iid >= Array.length tbl then begin
          let len = min max_cached_iid (max (iid + 1) (2 * Array.length tbl)) in
          let grown = Array.make len undecoded in
          Array.blit tbl 0 grown 0 (Array.length tbl);
          decoded := grown
        end;
        !decoded.(iid) <- d
      end;
      d
    end
  in
  let count counts order n i =
    if counts.(i) = 0 then begin
      order.(!n) <- i;
      incr n
    end;
    counts.(i) <- counts.(i) + 1
  in
  let active w v = Policy.active_bytes policy ~width:w ~value:v in
  (* Front end: returns the fetch cycle of one instruction. *)
  let fetch pc =
    let line = pc / machine.icache.line_bytes in
    if line <> !last_fetch_line then begin
      last_fetch_line := line;
      let addr = Int64.of_int pc in
      if not (Cache.access icache addr) then begin
        incr icache_misses;
        let penalty =
          if Cache.access l2 addr then machine.icache_miss_penalty
          else begin
            incr l2_misses;
            machine.icache_miss_penalty + machine.memory_latency
          end
        in
        Account.charge_fixed energy Ep.Dcache2 1;
        fetch_head := !fetch_head + penalty
      end;
      Account.charge_fixed energy Ep.Icache 1
    end;
    let f = Ring.take fetch_ring ~cycle:!fetch_head ~limit:machine.fetch_width in
    fetch_head := f;
    f
  in
  (* In-order dispatch constrained by the window: the [window_size]-th
     older instruction must have committed to free its entry. *)
  let dispatch f =
    let dc = max (f + machine.frontend_depth) !last_dispatch in
    let dc =
      if !n_dispatched >= machine.window_size then
        let idx = !n_dispatched mod machine.window_size in
        max dc rob_commit.(idx)
      else dc
    in
    last_dispatch := dc;
    dc
  in
  let commit complete =
    let cc = max (complete + 1) !last_commit in
    let cc = Ring.take commit_ring ~cycle:cc ~limit:machine.retire_width in
    last_commit := cc;
    let idx = !n_dispatched mod machine.window_size in
    rob_commit.(idx) <- cc;
    incr n_dispatched;
    cc
  in
  let issue ~earliest fu occupancy =
    let c = Ring.take issue_ring ~cycle:earliest ~limit:machine.issue_width in
    match fu with
    | Fu_alu -> Ring.take alu_ring ~cycle:c ~limit:machine.int_alus
    | Fu_muldiv ->
      let c = max c !muldiv_free in
      let c = Ring.take muldiv_ring ~cycle:c ~limit:machine.int_muldiv in
      muldiv_free := c + occupancy;
      c
    | Fu_none -> c
  in
  let dcache_load addr =
    incr dcache_accesses;
    if Cache.access dcache addr then machine.dcache_hit
    else begin
      incr dcache_misses;
      Account.charge_fixed energy Ep.Dcache2 1;
      if Cache.access l2 addr then machine.dcache_hit + machine.dcache_miss_penalty
      else begin
        incr l2_misses;
        machine.dcache_hit + machine.dcache_miss_penalty + machine.memory_latency
      end
    end
  in
  let dcache_store addr =
    incr dcache_accesses;
    if not (Cache.access dcache addr) then begin
      incr dcache_misses;
      Account.charge_fixed energy Ep.Dcache2 1;
      if not (Cache.access l2 addr) then incr l2_misses
    end
  in
  (* Common per-instruction front-end and bookkeeping energy. *)
  let frontend_energy () =
    Account.charge_fixed energy Ep.Rename 1;
    Account.charge_fixed energy Ep.Rob 2
  in
  let on_ins (ev : Interp.event) =
    incr instructions;
    match ev with
    | Interp.E_ins { iid; op; a; b; result; addr } ->
      let d = decoded_of iid op in
      let pc = iid * 4 in
      let f = fetch pc in
      let dc = dispatch f in
      let w = d.width in
      frontend_energy ();
      let ready = ref dc in
      for k = 0 to Array.length d.uses - 1 do
        ready := max !ready last_write.(d.uses.(k))
      done;
      (* Instruction queue entry: payload scaled by the source operands. *)
      Account.charge energy Ep.Iq
        ~active_bytes:(max (active w a) (active w b))
        ~tag_bits:tags;
      (* Register reads. *)
      if d.reads > 0 then
        Account.charge energy Ep.Regfile ~active_bytes:(active w a)
          ~tag_bits:tags;
      if d.reads > 1 then
        Account.charge energy Ep.Regfile ~active_bytes:(active w b)
          ~tag_bits:tags;
      let word = Int64.to_int (Int64.div addr 8L) in
      (* Loads wait for the latest conflicting store (no speculative
         memory disambiguation). *)
      let ready =
        match d.kind with
        | Load -> (
          match Word_tbl.find_opt store_ready word with
          | Some c -> max !ready c
          | None -> !ready)
        | Store | Call | Plain -> !ready
      in
      let ic = issue ~earliest:(max ready (dc + 1)) d.fu d.occupancy in
      let latency =
        match d.kind with
        | Load -> dcache_load addr
        | Store ->
          dcache_store addr;
          1
        | Call | Plain -> d.latency
      in
      if d.kind = Store then Word_tbl.replace store_ready word (ic + 1);
      (* Execution energy. *)
      (match d.fu with
      | Fu_muldiv ->
        Account.charge energy Ep.Muldiv
          ~active_bytes:(max (active w a) (max (active w b) (active w result)))
          ~tag_bits:0
      | Fu_alu ->
        Account.charge energy Ep.Alu
          ~active_bytes:(max (active w a) (max (active w b) (active w result)))
          ~tag_bits:0
      | Fu_none -> ());
      (match d.kind with
      | Load | Store ->
        let data = if d.kind = Store then b else result in
        let mem_bytes =
          match memory_mode with
          | Tagged -> active w data
          | Sign_extend -> 8 (* values widen at the cache boundary *)
        in
        (* Spill loads/stores move exactly the slot width the allocator
           proved sufficient, whatever the policy would charge. *)
        let mem_bytes =
          match spill_bytes_of iid with
          | Some b ->
            Account.charge_spill energy b;
            min mem_bytes b
          | None -> mem_bytes
        in
        Account.charge energy Ep.Lsq ~active_bytes:mem_bytes ~tag_bits:mem_tags;
        Account.charge energy Ep.Dcache1 ~active_bytes:mem_bytes
          ~tag_bits:mem_tags
      | Call | Plain -> ());
      let complete = ic + latency in
      if Array.length d.defs > 0 then begin
        (* A call produces no architectural value itself; the callee's
           instructions (which follow in the trace) write the registers.
           Any other result value goes through the rename buffers (write
           + read at commit), the register file write and the result
           bus. *)
        if d.kind <> Call then begin
          let ab = active w result in
          Account.charge energy Ep.Rename_buffers ~active_bytes:ab ~tag_bits:tags;
          Account.charge energy Ep.Rename_buffers ~active_bytes:ab ~tag_bits:tags;
          Account.charge energy Ep.Regfile ~active_bytes:ab ~tag_bits:tags;
          Account.charge energy Ep.Resultbus ~active_bytes:ab ~tag_bits:0
        end;
        for k = 0 to Array.length d.defs - 1 do
          last_write.(d.defs.(k)) <- complete
        done;
        if d.kind <> Call then begin
          let k = Ogc_gating.Sigbytes.significant_bytes result in
          sighist.(k - 1) <- sighist.(k - 1) + 1
        end
      end;
      let cc = commit complete in
      attribute ~f ~dc ~ic ~complete ~cc;
      count slot_counts slot_order n_slot_order d.slot;
      count opcode_totals opcode_order n_opcode_order d.opcode
    | Interp.E_branch { iid; taken; value; reg } ->
      let pc = iid * 4 in
      let f = fetch pc in
      let dc = dispatch f in
      frontend_energy ();
      incr branches;
      Account.charge_fixed energy Ep.Bpred 1;
      let predicted = Bpred.predict bpred ~pc in
      Bpred.update bpred ~pc ~taken;
      let src_ready = max dc last_write.(Reg.to_int reg) in
      let ic = issue ~earliest:(max src_ready (dc + 1)) Fu_alu 0 in
      let ab = Policy.active_bytes policy ~width:Width.W64 ~value in
      Account.charge energy Ep.Regfile ~active_bytes:ab ~tag_bits:tags;
      Account.charge energy Ep.Alu ~active_bytes:ab ~tag_bits:0;
      Account.charge energy Ep.Iq ~active_bytes:ab ~tag_bits:tags;
      let complete = ic + 1 in
      if predicted <> taken then begin
        incr mispredictions;
        fetch_head := max !fetch_head (complete + machine.mispredict_penalty)
      end
      else if taken && not (Cache.access btb (Int64.of_int pc)) then
        (* Right direction, unknown target: a short fetch bubble. *)
        fetch_head := !fetch_head + btb_bubble;
      let cc = commit complete in
      attribute ~f ~dc ~ic ~complete ~cc
    | Interp.E_jump { iid } ->
      let pc = iid * 4 in
      let f = fetch pc in
      let dc = dispatch f in
      frontend_energy ();
      if not (Cache.access btb (Int64.of_int pc)) then
        fetch_head := !fetch_head + btb_bubble;
      let cc = commit dc in
      attribute ~f ~dc ~ic:dc ~complete:dc ~cc
    | Interp.E_return { iid } ->
      let pc = iid * 4 in
      let f = fetch pc in
      let dc = dispatch f in
      frontend_energy ();
      let ic = issue ~earliest:(dc + 1) Fu_alu 0 in
      let complete = ic + 1 in
      let cc = commit complete in
      attribute ~f ~dc ~ic ~complete ~cc
  in
  let outcome = Interp.run ~on_event:on_ins p in
  let cycles = !last_commit + 1 in
  Account.charge_fixed energy Ep.Clock cycles;
  if obs then begin
    Metrics.incr m_sim_runs;
    Metrics.add m_sim_cycles (float_of_int cycles);
    Metrics.add m_sim_instructions (float_of_int !instructions);
    List.iter
      (fun (stage, c) ->
        let v =
          match stage with
          | "frontend" -> !st_frontend
          | "schedule" -> !st_schedule
          | "execute" -> !st_execute
          | _ -> !st_retire
        in
        Metrics.add c (float_of_int v))
      m_stage_cycles
  end;
  let class_width = Hashtbl.create 64 in
  for k = 0 to !n_slot_order - 1 do
    let slot = slot_order.(k) in
    let nw = Array.length widths in
    Hashtbl.replace class_width
      (iclasses.(slot / nw), widths.(slot mod nw))
      slot_counts.(slot)
  done;
  let opcode_counts = Hashtbl.create 128 in
  for k = 0 to !n_opcode_order - 1 do
    let op = opcode_order.(k) in
    Hashtbl.replace opcode_counts op opcode_totals.(op)
  done;
  {
    cycles;
    instructions = !instructions;
    branches = !branches;
    mispredictions = !mispredictions;
    icache_misses = !icache_misses;
    dcache_accesses = !dcache_accesses;
    dcache_misses = !dcache_misses;
    l2_misses = !l2_misses;
    energy;
    class_width;
    opcode_counts;
    sigbyte_histogram = sighist;
    checksum = outcome.checksum;
  }
