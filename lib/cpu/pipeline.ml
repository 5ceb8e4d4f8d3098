open Ogc_isa
open Ogc_ir
module Ep = Ogc_energy.Energy_params
module Account = Ogc_energy.Account
module Policy = Ogc_gating.Policy
module Metrics = Ogc_obs.Metrics
module Span = Ogc_obs.Span

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

(* Cycle-indexed resource reservation with an epoch-tagged ring, so no
   per-cycle clearing is needed.  The ring must be larger than the
   farthest ahead any instruction can be scheduled. *)
module Ring = struct
  type t = { used : int array; stamp : int array; size : int }

  let create size = { used = Array.make size 0; stamp = Array.make size (-1); size }

  let usage t cycle =
    let i = cycle mod t.size in
    if t.stamp.(i) = cycle then t.used.(i) else 0

  (* First cycle >= [cycle] with spare capacity; reserves one slot. *)
  let take t ~cycle ~limit =
    let c = ref cycle in
    while usage t !c >= limit do
      incr c
    done;
    let i = !c mod t.size in
    if t.stamp.(i) <> !c then begin
      t.stamp.(i) <- !c;
      t.used.(i) <- 0
    end;
    t.used.(i) <- t.used.(i) + 1;
    !c
end

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
    ?(interp_config = Interp.default_config) ?(memory_mode = Tagged)
    ?(spill_bytes_of = fun _ -> None) ~policy (p : Prog.t) =
  Span.with_ ~name:"simulate"
    ~args:[ ("policy", Ogc_json.Json.Str (Policy.name policy)) ]
  @@ fun () ->
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
  let ring_size = 1 lsl 15 in
  let fetch_ring = Ring.create ring_size in
  let issue_ring = Ring.create ring_size in
  let alu_ring = Ring.create ring_size in
  let muldiv_ring = Ring.create ring_size in
  let commit_ring = Ring.create ring_size in
  let last_write = Array.make 32 0 in
  (* The single mul/div unit pipelines multiplies but a divide occupies it
     for its full latency (real integer dividers are not pipelined). *)
  let muldiv_free = ref 0 in
  (* Memory dependences: a load may not issue before the last store to the
     same 8-byte word has produced its data (no speculative memory
     disambiguation).  Keyed by word address. *)
  let store_ready : (int64, int) Hashtbl.t = Hashtbl.create 4096 in
  (* Branch target buffer: taken control transfers whose target is not
     cached cost a front-end bubble even when the direction is right. *)
  let btb = Cache.create { Machine_config.size_bytes = 4096; ways = 4;
                           line_bytes = 4 } in
  let btb_bubble = 2 in
  let rob_commit = Array.make machine.window_size 0 in
  let n_dispatched = ref 0 in
  let fetch_head = ref 0 in
  let last_fetch_line = ref Int64.minus_one in
  let last_dispatch = ref 0 in
  let last_commit = ref 0 in
  let instructions = ref 0 in
  let branches = ref 0 in
  let mispredictions = ref 0 in
  let icache_misses = ref 0 in
  let dcache_accesses = ref 0 in
  let dcache_misses = ref 0 in
  let l2_misses = ref 0 in
  let class_width = Hashtbl.create 64 in
  let opcode_counts = Hashtbl.create 128 in
  let sighist = Array.make 8 0 in
  let tags = Policy.tag_bits policy in
  let mem_tags =
    match memory_mode with
    | Tagged -> Policy.memory_tag_bits policy
    | Sign_extend -> 0
  in
  let bump_class ic w =
    let key = (ic, w) in
    Hashtbl.replace class_width key
      (1 + Option.value ~default:0 (Hashtbl.find_opt class_width key))
  in
  let bump_opcode op =
    let key = Encoding.opcode_to_int (Encoding.opcode_of op) in
    Hashtbl.replace opcode_counts key
      (1 + Option.value ~default:0 (Hashtbl.find_opt opcode_counts key))
  in
  let active w v = Policy.active_bytes policy ~width:w ~value:v in
  (* Front end: returns the fetch cycle of one instruction. *)
  let fetch pc =
    let line =
      Int64.of_int (pc / machine.icache.line_bytes)
    in
    if not (Int64.equal line !last_fetch_line) then begin
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
  let issue ~earliest ~fu =
    let c = Ring.take issue_ring ~cycle:earliest ~limit:machine.issue_width in
    match fu with
    | `Alu -> Ring.take alu_ring ~cycle:c ~limit:machine.int_alus
    | `Muldiv occupancy ->
      let c = max c !muldiv_free in
      let c = Ring.take muldiv_ring ~cycle:c ~limit:machine.int_muldiv in
      muldiv_free := c + occupancy;
      c
    | `None -> c
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
      let pc = iid * 4 in
      let f = fetch pc in
      let dc = dispatch f in
      let w = Instr.width op in
      frontend_energy ();
      let uses = Instr.uses op in
      let defs = Instr.defs op in
      let ready =
        List.fold_left (fun acc r -> max acc last_write.(Reg.to_int r)) dc uses
      in
      (* Instruction queue entry: payload scaled by the source operands. *)
      Account.charge energy Ep.Iq
        ~active_bytes:(max (active w a) (active w b))
        ~tag_bits:tags;
      (* Register reads. *)
      List.iteri
        (fun i _ ->
          let v = if i = 0 then a else b in
          Account.charge energy Ep.Regfile ~active_bytes:(active w v)
            ~tag_bits:tags)
        (match uses with [] -> [] | [ x ] -> [ x ] | x :: y :: _ -> [ x; y ]);
      let fu =
        match op with
        | Instr.Alu { op = Instr.Mul; _ } -> `Muldiv 1 (* pipelined *)
        | Instr.Alu { op = Instr.Div | Instr.Rem; _ } ->
          `Muldiv machine.div_latency
        | Instr.Alu _ | Instr.Cmp _ | Instr.Cmov _ | Instr.Msk _
        | Instr.Sext _ | Instr.Li _ | Instr.La _ -> `Alu
        | Instr.Load _ | Instr.Store _ -> `Alu (* address generation *)
        | Instr.Call _ | Instr.Emit _ -> `None
      in
      (* Loads wait for the latest conflicting store (no speculative
         memory disambiguation). *)
      let ready =
        match op with
        | Instr.Load _ ->
          let word = Int64.div addr 8L in
          max ready (Option.value ~default:0 (Hashtbl.find_opt store_ready word))
        | _ -> ready
      in
      let ic = issue ~earliest:(max ready (dc + 1)) ~fu in
      let latency =
        match op with
        | Instr.Alu { op = Instr.Mul; _ } -> machine.mul_latency
        | Instr.Alu { op = Instr.Div | Instr.Rem; _ } -> machine.div_latency
        | Instr.Alu _ | Instr.Cmp _ | Instr.Cmov _ | Instr.Msk _
        | Instr.Sext _ | Instr.Li _ | Instr.La _ | Instr.Call _
        | Instr.Emit _ -> 1
        | Instr.Load _ -> dcache_load addr
        | Instr.Store _ ->
          dcache_store addr;
          1
      in
      (match op with
      | Instr.Store _ -> Hashtbl.replace store_ready (Int64.div addr 8L) (ic + 1)
      | _ -> ());
      (* Execution energy. *)
      (match fu with
      | `Muldiv _ ->
        Account.charge energy Ep.Muldiv
          ~active_bytes:(max (active w a) (max (active w b) (active w result)))
          ~tag_bits:0
      | `Alu ->
        Account.charge energy Ep.Alu
          ~active_bytes:(max (active w a) (max (active w b) (active w result)))
          ~tag_bits:0
      | `None -> ());
      if Instr.is_mem op then begin
        let data = match op with Instr.Store _ -> b | _ -> result in
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
      end;
      let complete = ic + latency in
      (match (op, defs) with
      | _, [] -> ()
      | Instr.Call _, _ ->
        (* A call produces no architectural value itself; the callee's
           instructions (which follow in the trace) write the registers. *)
        List.iter (fun r -> last_write.(Reg.to_int r) <- complete) defs
      | _, _ ->
        (* Result value: rename buffers (write + read at commit), write
           back to the register file, result-bus transfer. *)
        let ab = active w result in
        Account.charge energy Ep.Rename_buffers ~active_bytes:ab ~tag_bits:tags;
        Account.charge energy Ep.Rename_buffers ~active_bytes:ab ~tag_bits:tags;
        Account.charge energy Ep.Regfile ~active_bytes:ab ~tag_bits:tags;
        Account.charge energy Ep.Resultbus ~active_bytes:ab ~tag_bits:0;
        List.iter (fun r -> last_write.(Reg.to_int r) <- complete) defs;
        let k = Ogc_gating.Sigbytes.significant_bytes result in
        sighist.(k - 1) <- sighist.(k - 1) + 1);
      let cc = commit complete in
      attribute ~f ~dc ~ic ~complete ~cc;
      bump_class (Instr.iclass op) w;
      bump_opcode op
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
      let ic = issue ~earliest:(max src_ready (dc + 1)) ~fu:`Alu in
      Account.charge energy Ep.Regfile
        ~active_bytes:(Policy.active_bytes policy ~width:Width.W64 ~value)
        ~tag_bits:tags;
      Account.charge energy Ep.Alu
        ~active_bytes:(Policy.active_bytes policy ~width:Width.W64 ~value)
        ~tag_bits:0;
      Account.charge energy Ep.Iq
        ~active_bytes:(Policy.active_bytes policy ~width:Width.W64 ~value)
        ~tag_bits:tags;
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
      let ic = issue ~earliest:(dc + 1) ~fu:`Alu in
      let complete = ic + 1 in
      let cc = commit complete in
      attribute ~f ~dc ~ic ~complete ~cc
  in
  let outcome = Interp.run ~config:interp_config ~on_event:on_ins p in
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
