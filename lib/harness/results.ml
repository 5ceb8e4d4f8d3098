open Ogc_isa
module Pipeline = Ogc_cpu.Pipeline
module Policy = Ogc_gating.Policy
module Workload = Ogc_workloads.Workload
module Vrp = Ogc_core.Vrp
module Vrs = Ogc_core.Vrs
module Prog = Ogc_ir.Prog
module Interp = Ogc_ir.Interp
module Account = Ogc_energy.Account
module Ep = Ogc_energy.Energy_params
module Pool = Ogc_exec.Pool
module Regalloc = Ogc_regalloc.Regalloc
module Json = Ogc_json.Json
module Span = Ogc_obs.Span
module Clock = Ogc_obs.Clock
module Pass = Ogc_pass.Pass

let vrs_costs = [ 110; 90; 70; 50; 30 ]
let test_cost_of_label = Vrs.cost_of_label

type vrs_summary = {
  points_specialized : int;
  points_dependent : int;
  points_no_benefit : int;
  static_cloned : int;
  static_eliminated : int;
}

let summarize_report (rep : Vrs.report) =
  let s, d, n =
    List.fold_left
      (fun (s, d, n) (_, o) ->
        match o with
        | Vrs.Specialized _ -> (s + 1, d, n)
        | Vrs.Dependent_on_other -> (s, d + 1, n)
        | Vrs.No_benefit -> (s, d, n + 1))
      (0, 0, 0) rep.Vrs.profiled
  in
  {
    points_specialized = s;
    points_dependent = d;
    points_no_benefit = n;
    static_cloned = rep.Vrs.static_cloned;
    static_eliminated = rep.Vrs.static_eliminated;
  }

type wres = {
  wname : string;
  static_instructions : int;
  spill_slots_bytes : int;
      (** width-aware spill-slot bytes the allocator laid out *)
  spill_slots_naive_bytes : int;
      (** the same slots at a uniform 8 bytes each *)
  base_none : Pipeline.stats;
  base_hwsig : Pipeline.stats;
  base_hwsize : Pipeline.stats;
  vrp_sw : Pipeline.stats;
  vrpconv_sw : Pipeline.stats;
  vrp_sig : Pipeline.stats;
  vrp_size : Pipeline.stats;
  vrs : (int * Pipeline.stats) list;
  vrs50_sig : Pipeline.stats;
  vrs50_size : Pipeline.stats;
  vrs_reports : (int * vrs_summary) list;
  vrs50_spec_frac : float;
  vrs50_guard_frac : float;
}

(* One workload's analyze-throughput microbench: wall time of the dense
   [Vrp.analyze] (best of 5), the retained naive reference for the
   speedup column (one repetition — it is the slow one), and the dense
   engine's deterministic effort counters, which CI gates exactly. *)
type analyze_bench = {
  ab_seconds : float;
  ab_naive_seconds : float;
  ab_visits : int;
  ab_rounds : int;
  ab_defs : int;
}

(* One serve-fleet loadgen run (router + sharded servers, one shard
   killed mid-run): completion counts and client-observed latency
   percentiles.  [fb_failed] is gated exactly — the fleet criterion is
   zero failed submissions even through the kill. *)
type fleet_bench = {
  fb_shards : int;
  fb_requests : int;
  fb_failed : int;
  fb_hedged : int;
  fb_p50_ms : float;
  fb_p95_ms : float;
  fb_p99_ms : float;
}

type t = {
  workloads : wres list;
  analyze : (string * analyze_bench) list;
  fleet : fleet_bench option;
  quick : bool;
}

exception Semantics_changed of string

let check_checksum wname expected (s : Pipeline.stats) what =
  if not (Int64.equal expected s.checksum) then
    raise
      (Semantics_changed
         (Printf.sprintf "%s: %s changed the output (%Ld vs %Ld)" wname what
            expected s.checksum))

(* Run-time accounting of the specialized code (Figure 6): execute the
   final binary, count instructions committed inside clone blocks and
   guard comparisons. *)
let runtime_specialization (p : Prog.t) (rep : Vrs.report) eval_input =
  Workload.set_scale p eval_input;
  let counts : Interp.bb_counts = Hashtbl.create 64 in
  let out = Interp.run ~bb_counts:counts p in
  let clone_instrs = ref 0 in
  List.iter
    (fun (fname, label) ->
      match Prog.find_func_opt p fname with
      | None -> ()
      | Some f ->
        let b = Prog.block f label in
        let c = Interp.count_of counts fname label in
        clone_instrs := !clone_instrs + (c * (Array.length b.body + 1)))
    rep.clone_blocks;
  let guard_instrs = ref 0 in
  let tbl = Prog.ins_table p in
  Hashtbl.iter
    (fun iid () ->
      match Hashtbl.find_opt tbl iid with
      | Some (f, b, _) ->
        guard_instrs :=
          !guard_instrs + Interp.count_of counts f.Prog.fname b.Prog.label
      | None -> ())
    rep.guard_iids;
  let total = float_of_int (max 1 out.steps) in
  (float_of_int !clone_instrs /. total, float_of_int !guard_instrs /. total)

(* --- parallel collection --------------------------------------------------- *)

(* Per-workload output of the compile-and-baseline phase.  [pristine] is
   the one compilation of the workload, shared read-only by the
   binary-version tasks of the later phases (each starts from its own
   {!Prog.copy}).  [store] is the workload's pass-artifact store: the
   analyses phase warms it with the guard-cost-independent front of the
   VRS pipeline, and every version cell then runs its chain against it. *)
type base_info = {
  bw : Workload.t;
  pristine : Prog.t;
  store : Pass.Store.t;
  ref_checksum : int64;
  b_none : Pipeline.stats;
  b_hwsig : Pipeline.stats;
  b_hwsize : Pipeline.stats;
  b_static : int;
  b_spill_slots : int;  (** width-aware spill-slot bytes, whole program *)
  b_spill_naive : int;  (** the same slots at a uniform 8 bytes *)
  b_spill_fn : int -> int option;
      (** iid → spill slot bytes, for {!Pipeline.simulate}'s
          [spill_bytes_of]; valid on every binary version because passes
          preserve instruction ids *)
}

(* The guard-cost-independent front half of the VRS pipeline; warmed
   once per workload on the train input, shared by the cost sweep. *)
let profile_chain = "cleanup,vrp,encode-widths,bb-profile,value-profile"

(* One binary version of the paper grid: a pass chain over the
   workload's pristine program (profiling on the train input when
   [trains], else run at the evaluation input), simulated under each
   of [policies] in order.  The versions are the table below. *)
type version = {
  name : string;
  chain : string;
  trains : bool;
  policies : Policy.t list;
}

let vrs_version label = Printf.sprintf "vrs%d" label

let gating_variants =
  [ Policy.Software; Policy.Sw_plus_significance; Policy.Sw_plus_size ]

(* VRP, conventional VRP and one VRS version per cost; the anchor cost's
   VRS also runs the hardware-assisted variants. *)
let versions ~costs ~anchor_label =
  { name = "vrp";
    chain = "cleanup,vrp,encode-widths,cleanup";
    trains = false;
    policies = gating_variants }
  :: { name = "vrpconv";
       chain = "cleanup,vrp:variant=conventional,encode-widths,cleanup";
       trains = false;
       policies = [ Policy.Software ] }
  :: List.map
       (fun l ->
         { name = vrs_version l;
           chain = Printf.sprintf "%s,vrs:cost=%d,cleanup" profile_chain l;
           trains = true;
           policies =
             (if l = anchor_label then gating_variants
              else [ Policy.Software ]) })
       costs

(* What one (workload, version) task measured. *)
type cell = {
  sims : (Policy.t * Pipeline.stats) list;  (** in [policies] order *)
  summary : vrs_summary option;  (** VRS versions *)
  fracs : (float * float) option;
      (** spec and guard fractions, the anchor version only *)
}

let collect_timed ?(quick = false) ?only ?(progress = fun _ -> ()) ?jobs () =
  let jobs = Pool.resolve_jobs jobs in
  let eval_input = if quick then Workload.Train else Workload.Ref in
  let costs = if quick then [ 50 ] else vrs_costs in
  let anchor_label = if List.mem 50 costs then 50 else List.hd costs in
  let sim = Pipeline.simulate in
  (* The caller's progress callback is not required to be thread-safe;
     serialize it. *)
  let progress_mutex = Mutex.create () in
  let progress s = Mutex.protect progress_mutex (fun () -> progress s) in
  (* Every binary version gets the generic binary-optimizer cleanups,
     baseline included — the paper's baseline is Alto-processed too.
     Compilation from MiniC happens once per workload; versions start
     from a private copy of that pristine program and express their
     transformation as a pass chain against the workload's artifact
     store, so chains sharing a prefix (notably the VRS cost sweep's
     guard-cost-independent analysis front) compute it once. *)
  let scaled_copy pristine inp =
    let p = Prog.copy pristine in
    Workload.set_scale p inp;
    p
  in
  let run_pass_chain bi inp chain =
    let st, _ = Pass.run ~store:bi.store chain (scaled_copy bi.pristine inp) in
    Ogc_ir.Validate.program st.Pass.prog;
    st
  in
  let selected =
    match only with
    | None -> Workload.all
    | Some names ->
      List.filter (fun (w : Workload.t) -> List.mem w.name names) Workload.all
  in
  (* Phase 1: one task per workload — compile, then the baseline binary
     under the three hardware-side policies; the ungated run doubles as
     the reference run. *)
  let base_infos, ph1_s =
    Span.timed ~name:"collect:baselines" @@ fun () ->
    Pool.map ~jobs
      (fun (w : Workload.t) ->
        progress w.name;
        let pristine, alloc = Workload.compile_with_alloc w eval_input in
        let spill_fn iid = Hashtbl.find_opt alloc.Regalloc.spill_ops iid in
        let store = Pass.Store.create () in
        let base = scaled_copy pristine eval_input in
        let st, _ = Pass.run ~store "cleanup" base in
        let base = st.Pass.prog in
        (* [simulate] takes its checksum from the interpreter run it
           replays, so the ungated run's is the reference checksum. *)
        let b_none =
          sim ~spill_bytes_of:spill_fn ~policy:Policy.No_gating base
        in
        {
          bw = w;
          pristine;
          store;
          ref_checksum = b_none.Pipeline.checksum;
          b_none;
          b_hwsig =
            sim ~spill_bytes_of:spill_fn ~policy:Policy.Hw_significance base;
          b_hwsize = sim ~spill_bytes_of:spill_fn ~policy:Policy.Hw_size base;
          b_static = Prog.num_static_ins base;
          b_spill_slots = Regalloc.spill_slots_bytes alloc;
          b_spill_naive = Regalloc.spill_slots_naive_bytes alloc;
          b_spill_fn = spill_fn;
        })
      selected
  in
  (* Phase 2: warm each workload's store with the shared analysis front
     (VRP fixpoint, training basic-block profile, TNV value profiles) on
     the train input, so the phase-3 cost-sweep cells — which run
     concurrently — all hit it instead of recomputing it per cost. *)
  let (), ph_an_s =
    Span.timed ~name:"collect:analyses" @@ fun () ->
    ignore
      (Pool.map ~jobs
         (fun bi ->
           progress (bi.bw.Workload.name ^ "/analyze");
           ignore (run_pass_chain bi Workload.Train profile_chain))
         base_infos)
  in
  (* Phase 3: one task per (workload, binary version) cell. *)
  let anchor = vrs_version anchor_label in
  let versions = versions ~costs ~anchor_label in
  let cells =
    List.concat_map (fun bi -> List.map (fun v -> (bi, v)) versions) base_infos
  in
  let run_cell bi v =
    let wname = bi.bw.Workload.name in
    if v.trains then progress (wname ^ "/" ^ v.name);
    let input = if v.trains then Workload.Train else eval_input in
    let st = run_pass_chain bi input v.chain in
    let p = st.Pass.prog in
    if v.trains then Workload.set_scale p eval_input;
    let sims =
      List.map
        (fun policy ->
          let s = sim ~spill_bytes_of:bi.b_spill_fn ~policy p in
          check_checksum wname bi.ref_checksum s v.name;
          (policy, s))
        v.policies
    in
    { sims;
      summary = Option.map summarize_report st.Pass.report;
      fracs =
        (match st.Pass.report with
        | Some rep when String.equal v.name anchor ->
          Some (runtime_specialization p rep eval_input)
        | _ -> None) }
  in
  let cell_results, ph3_s =
    Span.timed ~name:"collect:versions" (fun () ->
        Pool.map ~jobs
          (fun (bi, v) -> ((bi.bw.Workload.name, v.name), run_cell bi v))
          cells)
  in
  (* Phase 4: analyze-throughput microbench, one [Vrp.analyze] per
     workload on the cleaned train-scaled program.  Runs sequentially —
     the numbers feed the CI regression gate, and co-scheduling them with
     other tasks would put domain contention into the timings. *)
  let analyze, ph4_s =
    Span.timed ~name:"collect:analyze-bench" @@ fun () ->
    List.map
      (fun bi ->
        progress (bi.bw.Workload.name ^ "/analyze-bench");
        let st, _ = Pass.run "cleanup" (scaled_copy bi.pristine Workload.Train) in
        let p = st.Pass.prog in
        let best = ref infinity in
        let last = ref None in
        for _ = 1 to 5 do
          let t0 = Clock.now () in
          let r = Vrp.analyze p in
          let dt = Clock.since t0 in
          if dt < !best then best := dt;
          last := Some r
        done;
        let r = match !last with Some r -> r | None -> assert false in
        let t0 = Clock.now () in
        ignore (Vrp.analyze ~engine:Vrp.Naive p);
        let naive_s = Clock.since t0 in
        let st = Vrp.fixpoint_stats r in
        ( bi.bw.Workload.name,
          {
            ab_seconds = !best;
            ab_naive_seconds = naive_s;
            ab_visits = st.Vrp.visits;
            ab_rounds = st.Vrp.rounds;
            ab_defs = Vrp.defs_analyzed r;
          } ))
      base_infos
  in
  let workloads =
    List.map
      (fun bi ->
        let wname = bi.bw.Workload.name in
        let cell v = List.assoc (wname, v) cell_results in
        let sim v policy = List.assoc policy (cell v).sims in
        let spec_frac, guard_frac = Option.get (cell anchor).fracs in
        {
          wname;
          static_instructions = bi.b_static;
          spill_slots_bytes = bi.b_spill_slots;
          spill_slots_naive_bytes = bi.b_spill_naive;
          base_none = bi.b_none;
          base_hwsig = bi.b_hwsig;
          base_hwsize = bi.b_hwsize;
          vrp_sw = sim "vrp" Policy.Software;
          vrpconv_sw = sim "vrpconv" Policy.Software;
          vrp_sig = sim "vrp" Policy.Sw_plus_significance;
          vrp_size = sim "vrp" Policy.Sw_plus_size;
          vrs =
            List.map (fun l -> (l, sim (vrs_version l) Policy.Software)) costs;
          vrs50_sig = sim anchor Policy.Sw_plus_significance;
          vrs50_size = sim anchor Policy.Sw_plus_size;
          vrs_reports =
            List.map (fun l -> (l, Option.get (cell (vrs_version l)).summary))
              costs;
          vrs50_spec_frac = spec_frac;
          vrs50_guard_frac = guard_frac;
        })
      base_infos
  in
  ( { workloads; analyze; fleet = None; quick },
    [ ("baselines", ph1_s); ("analyses", ph_an_s); ("versions", ph3_s);
      ("analyze-bench", ph4_s) ] )

let collect ?quick ?only ?progress ?jobs () =
  fst (collect_timed ?quick ?only ?progress ?jobs ())

(* --- serialization ---------------------------------------------------------- *)

let all_iclasses =
  [ Instr.C_add; Instr.C_sub; Instr.C_mul; Instr.C_and; Instr.C_or;
    Instr.C_xor; Instr.C_shift; Instr.C_cmp; Instr.C_cmov; Instr.C_msk;
    Instr.C_load; Instr.C_store; Instr.C_move; Instr.C_call; Instr.C_other ]

let iclass_rank c =
  let rec go i = function
    | [] -> assert false
    | c' :: tl -> if c = c' then i else go (i + 1) tl
  in
  go 0 all_iclasses

let stats_to_json (s : Pipeline.stats) =
  let class_width =
    Hashtbl.fold (fun (ic, w) n acc -> ((ic, w), n) :: acc) s.class_width []
    |> List.sort (fun ((c1, w1), _) ((c2, w2), _) ->
           match Int.compare (iclass_rank c1) (iclass_rank c2) with
           | 0 -> Int.compare (Width.bits w1) (Width.bits w2)
           | c -> c)
    |> List.map (fun ((ic, w), n) ->
           Json.Obj
             [ ("class", Json.Str (Instr.iclass_name ic));
               ("width", Json.Int (Width.bits w));
               ("n", Json.Int n) ])
  in
  let opcode_counts =
    Hashtbl.fold (fun op n acc -> (op, n) :: acc) s.opcode_counts []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map (fun (op, n) -> Json.Arr [ Json.Int op; Json.Int n ])
  in
  let energy =
    List.map
      (fun (st, e) -> (Ep.structure_name st, Json.Float e))
      (Account.by_structure s.energy)
  in
  Json.Obj
    [
      ("cycles", Json.Int s.cycles);
      ("instructions", Json.Int s.instructions);
      ("branches", Json.Int s.branches);
      ("mispredictions", Json.Int s.mispredictions);
      ("icache_misses", Json.Int s.icache_misses);
      ("dcache_accesses", Json.Int s.dcache_accesses);
      ("dcache_misses", Json.Int s.dcache_misses);
      ("l2_misses", Json.Int s.l2_misses);
      ("ipc", Json.Float (Pipeline.ipc s));
      ("energy_nj", Json.Float (Account.total s.energy));
      ("spill_traffic", Json.Float (Account.spill_traffic s.energy));
      ("energy", Json.Obj energy);
      ("class_width", Json.Arr class_width);
      ("opcode_counts", Json.Arr opcode_counts);
      ( "sigbyte_histogram",
        Json.Arr
          (Array.to_list (Array.map (fun n -> Json.Int n) s.sigbyte_histogram))
      );
      ("checksum", Json.Str (Int64.to_string s.checksum));
    ]

let summary_to_json (s : vrs_summary) =
  Json.Obj
    [
      ("specialized", Json.Int s.points_specialized);
      ("dependent", Json.Int s.points_dependent);
      ("no_benefit", Json.Int s.points_no_benefit);
      ("static_cloned", Json.Int s.static_cloned);
      ("static_eliminated", Json.Int s.static_eliminated);
    ]

let wres_to_json (w : wres) =
  Json.Obj
    [
      ("name", Json.Str w.wname);
      ("static_instructions", Json.Int w.static_instructions);
      ("spill_slots_bytes", Json.Int w.spill_slots_bytes);
      ("spill_slots_naive_bytes", Json.Int w.spill_slots_naive_bytes);
      ("base_none", stats_to_json w.base_none);
      ("base_hwsig", stats_to_json w.base_hwsig);
      ("base_hwsize", stats_to_json w.base_hwsize);
      ("vrp_sw", stats_to_json w.vrp_sw);
      ("vrpconv_sw", stats_to_json w.vrpconv_sw);
      ("vrp_sig", stats_to_json w.vrp_sig);
      ("vrp_size", stats_to_json w.vrp_size);
      ( "vrs",
        Json.Arr
          (List.map
             (fun (l, s) ->
               Json.Obj [ ("label", Json.Int l); ("stats", stats_to_json s) ])
             w.vrs) );
      ("vrs50_sig", stats_to_json w.vrs50_sig);
      ("vrs50_size", stats_to_json w.vrs50_size);
      ( "vrs_reports",
        Json.Arr
          (List.map
             (fun (l, s) ->
               Json.Obj [ ("label", Json.Int l); ("report", summary_to_json s) ])
             w.vrs_reports) );
      ("vrs50_spec_frac", Json.Float w.vrs50_spec_frac);
      ("vrs50_guard_frac", Json.Float w.vrs50_guard_frac);
    ]

let fleet_to_json fb =
  Json.Obj
    [
      ("shards", Json.Int fb.fb_shards);
      ("requests", Json.Int fb.fb_requests);
      ("failed", Json.Int fb.fb_failed);
      ("hedged", Json.Int fb.fb_hedged);
      ("p50_ms", Json.Float fb.fb_p50_ms);
      ("p95_ms", Json.Float fb.fb_p95_ms);
      ("p99_ms", Json.Float fb.fb_p99_ms);
    ]

let analyze_to_json (name, ab) =
  Json.Obj
    [
      ("name", Json.Str name);
      ("seconds", Json.Float ab.ab_seconds);
      ("naive_seconds", Json.Float ab.ab_naive_seconds);
      ("visits", Json.Int ab.ab_visits);
      ("rounds", Json.Int ab.ab_rounds);
      ("defs", Json.Int ab.ab_defs);
    ]

let to_json t =
  Json.Obj
    ([
       ("quick", Json.Bool t.quick);
       ("workloads", Json.Arr (List.map wres_to_json t.workloads));
       ("analyze", Json.Arr (List.map analyze_to_json t.analyze));
     ]
    @
    match t.fleet with
    | None -> []
    | Some fb -> [ ("fleet", fleet_to_json fb) ])

let without_timings t =
  { t with
    analyze =
      List.map
        (fun (n, ab) ->
          (n, { ab with ab_seconds = 0.0; ab_naive_seconds = 0.0 }))
        t.analyze }

(* --- gated rows ----------------------------------------------------------- *)

type gate = Exact | Worse_up of float | Worse_down of float | Time of float
type row = { series : string; key : string; value : float; gate : gate }

(* Modelled outputs may drift this far before a cell regresses.  Wall
   times get a catastrophic-only bound: best-of-5 timings still swing by
   tens of percent on a shared runner. *)
let model_tolerance = 0.05
let time_tolerance = 2.0

let config_stats (w : wres) =
  [
    ("base_none", w.base_none);
    ("base_hwsig", w.base_hwsig);
    ("base_hwsize", w.base_hwsize);
    ("vrp_sw", w.vrp_sw);
    ("vrpconv_sw", w.vrpconv_sw);
    ("vrp_sig", w.vrp_sig);
    ("vrp_size", w.vrp_size);
  ]
  @ List.map (fun (l, s) -> (Printf.sprintf "vrs%d" l, s)) w.vrs
  @ [ ("vrs50_sig", w.vrs50_sig); ("vrs50_size", w.vrs50_size) ]

(* The first 48 bits of an MD5, as a float that holds them exactly. *)
let digest48 s =
  let d = Digest.string s in
  let v = ref 0 in
  for i = 0 to 5 do
    v := (!v lsl 8) lor Char.code d.[i]
  done;
  float_of_int !v

let gated t =
  let row series key gate value = { series; key; value; gate } in
  let per_workload f = List.concat_map f t.workloads in
  [ row "mode" "*/quick" Exact (if t.quick then 1.0 else 0.0) ]
  @ per_workload (fun w ->
        let mine =
          { t with
            workloads = [ w ];
            analyze = List.filter (fun (n, _) -> n = w.wname) t.analyze;
            fleet = None }
        in
        [ row "digest" (w.wname ^ "/md5") Exact
            (digest48
               (Json.to_string ~indent:false (to_json (without_timings mine))))
        ])
  @ per_workload (fun w ->
        List.concat_map
          (fun (config, (s : Pipeline.stats)) ->
            let key m = String.concat "/" [ w.wname; config; m ] in
            (* Energy is worse when it grows, IPC when it drops. *)
            [ row "cell" (key "energy_nj") (Worse_up model_tolerance)
                (Account.total s.energy);
              row "cell" (key "ipc") (Worse_down model_tolerance)
                (Pipeline.ipc s) ])
          (config_stats w))
  @ per_workload (fun w ->
        let key m = w.wname ^ "/" ^ m in
        [ row "spill" (key "spill_slots_bytes") (Worse_up model_tolerance)
            (float_of_int w.spill_slots_bytes);
          row "spill" (key "spill_traffic") (Worse_up model_tolerance)
            (Account.spill_traffic w.base_none.Pipeline.energy);
          (* 1 while the width-aware slots beat naive 8-byte ones (or
             nothing spills): losing that win regresses, whatever the
             byte totals do. *)
          row "spill" (key "spill_width_win") (Worse_down 0.0)
            (if
               w.spill_slots_naive_bytes = 0
               || w.spill_slots_bytes < w.spill_slots_naive_bytes
             then 1.0
             else 0.0) ])
  @ List.concat_map
      (fun (name, ab) ->
        let key m = name ^ "/" ^ m in
        [ row "analyze" (key "analyze_visits") Exact
            (float_of_int ab.ab_visits);
          row "analyze" (key "analyze_rounds") Exact
            (float_of_int ab.ab_rounds);
          row "analyze" (key "analyze_seconds") (Time time_tolerance)
            ab.ab_seconds ])
      t.analyze
  @
  match t.fleet with
  | None -> []
  | Some fb ->
    (* Zero failed submissions through the kill is the fleet's
       contract; a run of another size must be re-blessed. *)
    [ row "fleet" "*/shards" Exact (float_of_int fb.fb_shards);
      row "fleet" "*/requests" Exact (float_of_int fb.fb_requests);
      row "fleet" "*/failed" Exact (float_of_int fb.fb_failed);
      row "fleet" "*/fleet_p50_ms" (Time time_tolerance) fb.fb_p50_ms;
      row "fleet" "*/fleet_p95_ms" (Time time_tolerance) fb.fb_p95_ms ]

let format_name = "ogc-results"
let format_version = 2
let row_name r = r.series ^ "/" ^ r.key

let rows_to_json ~phases rows =
  Json.Obj
    [
      ("format", Json.Str format_name);
      ("version", Json.Int format_version);
      ( "rows",
        Json.Obj (List.map (fun r -> (row_name r, Json.Float r.value)) rows) );
      ("phases", Json.Obj (List.map (fun (n, s) -> (n, Json.Float s)) phases));
    ]

let rows_of_json j =
  (match Json.member "format" j with
  | Json.Str f when String.equal f format_name -> ()
  | _ -> raise (Json.Parse_error "not an ogc-results file"));
  (match Json.get_int "version" j with
  | v when v = format_version -> ()
  | v ->
    raise
      (Json.Parse_error
         (Printf.sprintf
            "results format version %d, expected %d; re-bless it with \
             scripts/bless-baseline.sh"
            v format_version)));
  match Json.member "rows" j with
  | Json.Obj kvs as rows ->
    List.map (fun (k, _) -> (k, Json.get_float k rows)) kvs
  | _ -> raise (Json.Parse_error "rows: expected an object")

(* --- regression comparison --------------------------------------------------- *)

type regression = {
  r_workload : string;
  r_config : string;
  r_metric : string;
  r_baseline : float;
  r_current : float;
  r_delta_frac : float;
}

(* How much worse [cur] is than [base] under [gate], when that fires. *)
let worse gate ~base ~cur =
  match gate with
  | Exact ->
    if Float.equal base cur then None
    else Some (if base = 0.0 then 1.0 else Float.abs ((cur -. base) /. base))
  | Worse_up tol | Time tol ->
    (* Growth from zero has no ratio; it counts as 100%. *)
    let d =
      if base > 0.0 then (cur -. base) /. base
      else if cur > base then 1.0
      else 0.0
    in
    if d > tol then Some d else None
  | Worse_down tol ->
    let d = if base > 0.0 then (base -. cur) /. base else 0.0 in
    if d > tol then Some d else None

let compare_rows ~baseline current =
  let regression r base delta =
    (* Keys are "workload/metric" or "workload/config/metric"; the
       series names the config when the key does not. *)
    let i = String.index r.key '/' and j = String.rindex r.key '/' in
    {
      r_workload = String.sub r.key 0 i;
      r_config =
        (if i = j then r.series else String.sub r.key (i + 1) (j - i - 1));
      r_metric = String.sub r.key (j + 1) (String.length r.key - j - 1);
      r_baseline = base;
      r_current = r.value;
      r_delta_frac = delta;
    }
  in
  let regs =
    List.filter_map
      (fun r ->
        match List.assoc_opt (row_name r) baseline with
        | None -> Some (regression r Float.nan 1.0)
        | Some base ->
          Option.map (regression r base) (worse r.gate ~base ~cur:r.value))
      current
  in
  (* A quick run against a full baseline (or back) compares nothing else:
     one loud mode row instead of a wall of incomparable cells. *)
  match List.filter (fun g -> g.r_config = "mode") regs with
  | [] -> regs
  | mode -> mode

let render_regressions = function
  | [] -> "no regressions\n"
  | rs ->
    Render.table
      ~header:[ "Workload"; "Config"; "Metric"; "baseline"; "current"; "worse by" ]
      (List.map
         (fun r ->
           let missing = Float.is_nan r.r_baseline in
           [
             r.r_workload;
             r.r_config;
             r.r_metric;
             (if missing then "missing"
              else Printf.sprintf "%.4g" r.r_baseline);
             Printf.sprintf "%.4g" r.r_current;
             (if missing then "-" else Render.pct r.r_delta_frac);
           ])
         rs)

let write_json path ~phases t =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string (rows_to_json ~phases (gated t))))

let baseline_gate path =
  let baseline =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error msg ->
      Printf.eprintf "cannot read baseline: %s\n%!" msg;
      exit 66
    | src -> (
      try rows_of_json (Json.of_string src)
      with Json.Parse_error msg ->
        Printf.eprintf "bad baseline %s: %s\n%!" path msg;
        exit 65)
  in
  fun t ->
    let regs = compare_rows ~baseline (gated t) in
    print_string
      (Render.heading (Printf.sprintf "Regression check vs %s" path));
    print_string (render_regressions regs);
    if regs <> [] then exit 3

(* --- aggregation ---------------------------------------------------------- *)

let average_distribution t select =
  let dists =
    List.map (fun w -> Pipeline.width_distribution (select w)) t.workloads
  in
  let n = float_of_int (max 1 (List.length dists)) in
  List.map
    (fun w ->
      ( w,
        List.fold_left (fun acc d -> acc +. List.assoc w d) 0.0 dists /. n ))
    Width.all

let class_table t select =
  let acc = Hashtbl.create 32 in
  let grand = ref 0 in
  List.iter
    (fun wr ->
      let s = select wr in
      Hashtbl.iter
        (fun (ic, w) n ->
          if List.mem ic Instr.all_alu_classes then begin
            Hashtbl.replace acc (ic, w)
              (n + Option.value ~default:0 (Hashtbl.find_opt acc (ic, w)));
            grand := !grand + n
          end)
        s.Pipeline.class_width)
    t.workloads;
  (* Include every committed instruction in the denominator of the share
     column, as the paper does ("percentage of run-time instructions"). *)
  let total_committed =
    List.fold_left (fun a wr -> a + (select wr).Pipeline.instructions) 0 t.workloads
  in
  List.filter_map
    (fun ic ->
      let class_total =
        List.fold_left
          (fun a w -> a + Option.value ~default:0 (Hashtbl.find_opt acc (ic, w)))
          0 Width.all
      in
      if class_total = 0 then None
      else
        let share = float_of_int class_total /. float_of_int (max 1 total_committed) in
        let per_width =
          List.map
            (fun w ->
              ( w,
                float_of_int
                  (Option.value ~default:0 (Hashtbl.find_opt acc (ic, w)))
                /. float_of_int class_total ))
            Width.all
        in
        Some (ic, share, per_width))
    Instr.all_alu_classes
  |> List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a)

let mean t f =
  let xs = List.map f t.workloads in
  List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs))

let total_energy (s : Pipeline.stats) = Account.total s.Pipeline.energy

let energy_saving w ~(improved : Pipeline.stats) =
  Account.savings ~baseline:(total_energy w.base_none)
    ~improved:(total_energy improved)

let time_saving w ~(improved : Pipeline.stats) =
  Account.savings
    ~baseline:(float_of_int w.base_none.cycles)
    ~improved:(float_of_int improved.Pipeline.cycles)

let ed2_saving w ~(improved : Pipeline.stats) =
  Account.savings
    ~baseline:
      (Account.ed2 ~energy:(total_energy w.base_none) ~cycles:w.base_none.Pipeline.cycles)
    ~improved:
      (Account.ed2 ~energy:(total_energy improved) ~cycles:improved.Pipeline.cycles)

let structure_saving w ~(improved : Pipeline.stats) s =
  Account.savings
    ~baseline:(Account.energy_of w.base_none.Pipeline.energy s)
    ~improved:(Account.energy_of improved.Pipeline.energy s)
