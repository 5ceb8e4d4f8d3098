(* paper-grid: the reproducer's job, one quick-grid row per op
   ([bench --quick] restricted to one surrogate, at --jobs 1). *)

module Results = Ogc_harness.Results
module Workload = Ogc_workloads.Workload
module Interp = Ogc_ir.Interp
module Pipeline = Ogc_cpu.Pipeline
module Policy = Ogc_gating.Policy
module Account = Ogc_energy.Account
module Minic = Ogc_minic.Minic
module Metrics = Ogc_obs.Metrics
open Util

(* Every row runs the cheapest surrogate, so the row class has one
   latency mode (rows of the eight surrogates span 2.3 s to 8.7 s) and a
   run fits the most rows.  [row_cost] is its row's seconds at --jobs 1
   on a 2-core x86-64 host; only the number of rows depends on it, never
   a clock reading. *)
let surrogate = "ijpeg"
let row_cost = 2.3

let cells (r : Results.wres) =
  [ ("base_none", r.base_none); ("base_hwsig", r.base_hwsig);
    ("base_hwsize", r.base_hwsize); ("vrp_sw", r.vrp_sw);
    ("vrpconv_sw", r.vrpconv_sw); ("vrp_sig", r.vrp_sig);
    ("vrp_size", r.vrp_size); ("vrs50_sig", r.vrs50_sig);
    ("vrs50_size", r.vrs50_size) ]
  @ List.map (fun (l, s) -> (Printf.sprintf "vrs%d" l, s)) r.vrs

let row () = Results.collect_timed ~quick:true ~only:[ surrogate ] ~jobs:1 ()

(* The lib/obs counters a row's exact counts are read from. *)
let counters =
  [ "ogc_sim_runs_total"; "ogc_sim_instructions_total";
    "ogc_pass_cache_hits_total" ]

let run ~seed:_ ~seconds ~traced =
  let n = max 2 (int_of_float (seconds /. row_cost)) in
  let w = Workload.find surrogate in
  (* Set-up: compile the surrogate and run it in the reference
     interpreter; that checksum is the oracle for every cell. *)
  let setup () =
    (Interp.run (Workload.compile w Workload.Train)).Interp.checksum
  in
  let reference, setups = repeat_setup 9 ~setup ~release:ignore in
  let digest =
    digest_strings [ surrogate; w.Workload.source; string_of_int n ]
  in
  let energy = ref [] in
  let check o () ((t : Results.t), _) =
    match t.Results.workloads with
    | [ r ] ->
      let base = Account.total r.Results.base_none.Pipeline.energy in
      List.iter
        (fun (name, (s : Pipeline.stats)) ->
          if not (Int64.equal s.Pipeline.checksum reference) then
            fail o "%s: checksum %Ld, reference %Ld" name s.Pipeline.checksum
              reference;
          if name <> "base_none" then
            energy := (Account.total s.Pipeline.energy /. base) :: !energy)
        (cells r)
    | l -> fail o "%d result rows, expected 1" (List.length l)
  in
  let ops, timed_s =
    timed_phase (Array.make n ()) ~cls:(fun () -> "row") ~run:row ~check
  in
  let rss_mb = peak_rss_mb 0 in
  let layer, docs =
    if not traced then ([], [])
    else begin
      (* Traced pass: the same rows with the lib/obs counters on, each
         row in a span; counter deltas and phase lists per row. *)
      Metrics.set_enabled true;
      Spans.reset ();
      let nf = float_of_int n in
      let before = List.map counter_total counters in
      let phases = Hashtbl.create 4 in
      let traced_s = ref 0.0 in
      for _ = 1 to n do
        let (_, ph), dt = Spans.with_ ~layer:"harness" "row" row in
        traced_s := !traced_s +. dt;
        List.iter (fun (k, v) -> add_into phases k v) ph
      done;
      let per_row =
        List.map2 (fun c b -> (counter_total c -. b) /. nf) counters before
      in
      Metrics.set_enabled false;
      let sim_calls, sim_instr, hits =
        match per_row with [ a; b; c ] -> (a, b, c) | _ -> assert false
      in
      (* Replay, once per row: the unit costs of the layers a row spends
         its time in, on the row's baseline program. *)
      let lower = Array.make n 0.0 and alloc = Array.make n 0.0 in
      let interp = Array.make n 0.0 and sim = Array.make n 0.0 in
      let src = w.Workload.source in
      for i = 0 to n - 1 do
        let _, lo =
          Spans.with_ ~layer:"minic" "minic.lower" (fun () -> Minic.lower src)
        in
        let _, co =
          Spans.with_ ~layer:"regalloc" "minic.compile_with_info" (fun () ->
              Minic.compile_with_info src)
        in
        lower.(i) <- lo;
        alloc.(i) <- co -. lo;
        let p = Workload.compile w Workload.Train in
        let out, it =
          Spans.with_ ~layer:"ir" "interp.run" (fun () -> Interp.run p)
        in
        let st, sm =
          Spans.with_ ~layer:"cpu" "pipeline.simulate" (fun () ->
              Pipeline.simulate ~policy:Policy.No_gating p)
        in
        interp.(i) <- it *. 1e9 /. float_of_int out.Interp.steps;
        sim.(i) <- sm *. 1e9 /. float_of_int st.Pipeline.instructions
      done;
      let interp = median interp and sim = median sim in
      let row_s = !traced_s /. nf in
      let shares =
        [ ("minic", median lower /. row_s); ("regalloc", median alloc /. row_s);
          ("ir", sim_instr *. interp *. 1e-9 /. row_s);
          ("cpu", sim_instr *. (sim -. interp) *. 1e-9 /. row_s) ]
      in
      let ph k = find0 phases k /. nf in
      ( [ ("cpu.sim_ns_per_instr", sim); ("ir.interp_ns_per_step", interp);
          ("cpu.model_ns_per_instr", sim -. interp);
          ("cpu.sim_calls", sim_calls); ("cpu.sim_minstr", sim_instr /. 1e6);
          ("cpu.sim_share", sim_instr *. sim *. 1e-9 /. row_s);
          ("harness.baselines_s", ph "baselines");
          ("harness.analyses_s", ph "analyses");
          ("harness.versions_s", ph "versions");
          ("harness.analyze_bench_s", ph "analyze-bench");
          ("pass.store_hits", hits);
          ("trace.overhead_pct", overhead_pct ~timed_s ~traced_s:!traced_s) ]
        @ share_metrics shares,
        [ ("perfbench", Spans.document ()) ] )
    end
  in
  { setups; timed_s; ops; main = "row"; failures = failures_list ();
    energy = !energy; rss_mb; digest; layer;
    samples =
      List.map
        (fun m -> (m, n))
        [ "cpu.sim_ns_per_instr"; "ir.interp_ns_per_step";
          "cpu.model_ns_per_instr"; "harness.baselines_s";
          "harness.analyses_s"; "harness.versions_s";
          "harness.analyze_bench_s" ];
    exact = [ "cpu.sim_calls"; "cpu.sim_minstr"; "pass.store_hits" ];
    docs }
