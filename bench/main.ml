(* The full benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (Tables 1-3, Figures 2-15) on the eight SpecInt95 surrogate workloads:
   all binary versions (baseline, conventional VRP, proposed VRP, VRS at
   the five specialization costs) are built and simulated on the Table 2
   machine under every gating policy the experiment needs.  The grid is
   sharded over a Domain pool (lib/exec) — see --jobs.  Ablations of the
   design choices DESIGN.md calls out follow.

   Usage: dune exec bench/main.exe -- [OPTIONS]
     --quick               train inputs and only the VRS-50 configuration
     --jobs N              worker domains (0 = auto: OGC_JOBS or the
                           machine's recommended domain count)
     --json FILE           write the gated rows (one line each: modelled
                           energy/IPC cells, spill, analyze and fleet
                           series, a per-workload output digest) and the
                           phase timings
     --baseline FILE       gate against a previous --json file: exit 3 on
                           regression, 65 if FILE is malformed or of an
                           older format (re-bless it), 66 if unreadable;
                           skips the ablations
     --trace FILE          record phase spans during the collection and
                           write a Chrome trace_event JSON (Perfetto)
     --skip-micro          skip the ablations *)

module Results = Ogc_harness.Results
module Experiments = Ogc_harness.Experiments
module Json = Ogc_json.Json
module Interp = Ogc_ir.Interp
module Vrp = Ogc_core.Vrp
module Vrs = Ogc_core.Vrs
module Policy = Ogc_gating.Policy

type options = {
  quick : bool;
  jobs : int option;
  json_out : string option;
  baseline : string option;
  trace_out : string option;
  skip_ablations : bool;
}

let usage () =
  prerr_endline
    "usage: main.exe [--quick] [--jobs N] [--json FILE] [--baseline FILE]\n\
    \                [--trace FILE] [--skip-micro]";
  exit 64

let parse_options () =
  let o =
    ref
      {
        quick = false;
        jobs = None;
        json_out = None;
        baseline = None;
        trace_out = None;
        skip_ablations = false;
      }
  in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
      o := { !o with quick = true };
      go rest
    | "--skip-micro" :: rest ->
      o := { !o with skip_ablations = true };
      go rest
    | "--jobs" :: v :: rest -> (
      match int_of_string_opt v with
      | Some n when n >= 0 ->
        o := { !o with jobs = (if n = 0 then None else Some n) };
        go rest
      | _ -> usage ())
    | "--json" :: v :: rest ->
      o := { !o with json_out = Some v };
      go rest
    | "--baseline" :: v :: rest ->
      o := { !o with baseline = Some v };
      go rest
    | "--trace" :: v :: rest ->
      o := { !o with trace_out = Some v };
      go rest
    | arg :: _ ->
      Printf.eprintf "unknown option %s\n" arg;
      usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  !o

let opts = parse_options ()
let quick = opts.quick

(* --- part 0: serve-fleet smoke bench ------------------------------------------ *)

(* Three in-process shards behind the consistent-hash router, a loadgen
   burst with one shard killed halfway through.  The gated series is the
   completion counts (failed must stay zero through the kill) and the
   client-observed latency percentiles.  Sized to a few seconds; the
   request count is fixed so baseline runs stay comparable. *)
let run_fleet_bench () =
  let module Server = Ogc_server.Server in
  let module Net = Ogc_net.Net in
  let module Router = Ogc_fleet.Router in
  let module Loadgen = Ogc_fleet.Loadgen in
  let sock i =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ogc-bench-%d-%d.sock" (Unix.getpid ()) i)
  in
  let shards =
    List.init 3 (fun i ->
        let path = sock i in
        if Sys.file_exists path then Sys.remove path;
        let cfg =
          { (Server.default_config (Net.Unix_sock path)) with
            jobs = Some 1 }
        in
        let t = Server.create cfg in
        (Printf.sprintf "s%d" i, path, t, Thread.create Server.run t))
  in
  let rpath = sock 99 in
  if Sys.file_exists rpath then Sys.remove rpath;
  let targets =
    List.map
      (fun (n, p, _, _) -> { Router.t_name = n; t_addr = Net.Unix_sock p })
      shards
  in
  let router =
    Router.create { Router.addr = Net.Unix_sock rpath; shards = targets }
  in
  let rth = Thread.create Router.run router in
  let requests = 240 in
  let lcfg =
    { (Loadgen.default_config ~addr:(Net.Unix_sock rpath)) with
      requests;
      clients = 3;
      retries = 8 }
  in
  let victim = match shards with (_, _, t, _) :: _ -> t | [] -> assert false in
  let report =
    Fun.protect
      ~finally:(fun () ->
        Router.stop router;
        Thread.join rth;
        List.iter
          (fun (_, p, t, th) ->
            Server.stop t;
            Thread.join th;
            if Sys.file_exists p then Sys.remove p)
          shards;
        if Sys.file_exists rpath then Sys.remove rpath)
      (fun () ->
        Loadgen.run ~kill:(requests / 2, fun () -> Server.stop victim) lcfg)
  in
  {
    Results.fb_shards = 3;
    fb_requests = report.Loadgen.total;
    fb_failed = report.Loadgen.failed;
    fb_hedged = Json.get_int "hedged" (Router.stats_json router);
    fb_p50_ms = report.Loadgen.p50_ms;
    fb_p95_ms = report.Loadgen.p95_ms;
    fb_p99_ms = report.Loadgen.p99_ms;
  }

(* --- part 1: the paper's evaluation ------------------------------------------ *)

let () =
  Format.printf
    "Software-Controlled Operand-Gating (CGO 2004) — experiment reproduction@.";
  let jobs = Ogc_exec.Pool.resolve_jobs opts.jobs in
  Format.printf "mode: %s, %d job%s@.@."
    (if quick then "quick (train inputs, VRS-50 only)"
     else "full (reference inputs, VRS 110/90/70/50/30)")
    jobs
    (if jobs = 1 then "" else "s");
  (* Load the baseline before the (expensive) collection so a bad path or
     corrupt file fails in milliseconds, not after the whole run. *)
  let gate = Option.map Results.baseline_gate opts.baseline in
  if opts.trace_out <> None then begin
    Ogc_obs.Metrics.set_enabled true;
    Ogc_obs.Span.set_enabled true
  end;
  let t0 = Ogc_obs.Clock.now () in
  let cpu0 = Sys.time () in
  let res, phases =
    Results.collect_timed ~quick ~jobs
      ~progress:(fun s -> Format.eprintf "[%s] %!" s)
      ()
  in
  let wall = Ogc_obs.Clock.since t0 in
  Format.eprintf "@.";
  (match opts.trace_out with
  | None -> ()
  | Some path ->
    Ogc_obs.Span.write path;
    Ogc_obs.Span.set_enabled false;
    Format.printf "wrote %s@." path);
  Format.printf "phases:%s@.@."
    (String.concat ""
       (List.map (fun (n, s) -> Printf.sprintf " %s %.1fs" n s) phases));
  (* Serve-fleet smoke: router + 3 shards, one killed mid-run. *)
  let res =
    let fb = run_fleet_bench () in
    Format.printf "%s"
      (Ogc_harness.Render.heading
         "Serve fleet (3 shards, hashed router, one shard killed mid-run)");
    Format.printf
      "requests %d, failed %d, hedged %d, p50 %.2f ms, p95 %.2f ms, p99 \
       %.2f ms@.@."
      fb.Results.fb_requests fb.Results.fb_failed fb.Results.fb_hedged
      fb.Results.fb_p50_ms fb.Results.fb_p95_ms fb.Results.fb_p99_ms;
    { res with Results.fleet = Some fb }
  in
  (* Spill area and traffic: width-aware slots vs naive 8-byte slots
     (static), plus the bytes actually moved by spill code in the
     ungated baseline run (dynamic, the CI-gated series). *)
  Format.printf "%s"
    (Ogc_harness.Render.heading
       "Register-allocator spill slots (width-aware vs naive 8-byte)");
  Format.printf "%s@."
    (Ogc_harness.Render.table
       ~header:[ "Workload"; "slot bytes"; "naive bytes"; "saved"; "traffic B" ]
       (List.map
          (fun (w : Results.wres) ->
            [
              w.Results.wname;
              string_of_int w.Results.spill_slots_bytes;
              string_of_int w.Results.spill_slots_naive_bytes;
              (if w.Results.spill_slots_naive_bytes > 0 then
                 Printf.sprintf "%.0f%%"
                   (100.0
                   *. (1.0
                      -. float_of_int w.Results.spill_slots_bytes
                         /. float_of_int w.Results.spill_slots_naive_bytes))
               else "-");
              Printf.sprintf "%.0f"
                (Ogc_energy.Account.spill_traffic
                   w.Results.base_none.Ogc_cpu.Pipeline.energy);
            ])
          res.Results.workloads));
  (* Analyze-throughput microbench (the CI-gated series). *)
  if res.Results.analyze <> [] then begin
    Format.printf "%s"
      (Ogc_harness.Render.heading
         "Analyze throughput (dense VRP fixpoint, train inputs)");
    Format.printf "%s@."
      (Ogc_harness.Render.table
         ~header:
           [ "Workload"; "analyze ms"; "naive ms"; "speedup"; "visits";
             "rounds"; "defs" ]
         (List.map
            (fun (name, ab) ->
              [
                name;
                Printf.sprintf "%.2f" (ab.Results.ab_seconds *. 1e3);
                Printf.sprintf "%.2f" (ab.Results.ab_naive_seconds *. 1e3);
                (if ab.Results.ab_seconds > 0.0 then
                   Printf.sprintf "%.1fx"
                     (ab.Results.ab_naive_seconds /. ab.Results.ab_seconds)
                 else "-");
                string_of_int ab.Results.ab_visits;
                string_of_int ab.Results.ab_rounds;
                string_of_int ab.Results.ab_defs;
              ])
            res.Results.analyze))
  end;
  Format.printf "%s" (Experiments.render_all res);
  Format.printf "%s"
    (Ogc_harness.Render.heading "Headline comparison with the paper");
  Format.printf "%s@."
    (Experiments.render_headline (Experiments.headline res));
  Format.printf "(collection took %.1f s wall, %.0f s CPU, %d jobs)@.@." wall
    (Sys.time () -. cpu0) jobs;
  (match opts.json_out with
  | None -> ()
  | Some path ->
    Results.write_json path ~phases res;
    Format.printf "wrote %s@.@." path);
  match gate with
  | None -> ()
  | Some gate ->
    gate res;
    exit 0

(* --- part 1b: ablations of the design choices DESIGN.md calls out ------------- *)

let () = if opts.skip_ablations then () else begin
  Format.printf "%s"
    (Ogc_harness.Render.heading "Ablations (train inputs, two workloads)");
  let module W = Ogc_workloads.Workload in
  let module Pipeline = Ogc_cpu.Pipeline in
  let module Account = Ogc_energy.Account in
  let picks = [ "compress"; "m88ksim" ] in
  (* 1. Useful-range propagation variants: conventional vs paper-literal
     (§2.2.5, no demand through arithmetic) vs default. *)
  Format.printf
    "VRP variant ablation — 64-bit share of width-bearing instructions@.";
  let rows =
    List.map
      (fun name ->
        let w = W.find name in
        let run cfg =
          let p = W.compile w W.Train in
          (match cfg with
          | None -> ()
          | Some c -> ignore (Vrp.run ~config:c p));
          let policy =
            if cfg = None then Policy.No_gating else Policy.Software
          in
          Pipeline.simulate ~policy p
        in
        let base = run None in
        let conv = run (Some Vrp.conventional_config) in
        let lit =
          run (Some { Vrp.default_config with useful_through_arith = false })
        in
        let dflt = run (Some Vrp.default_config) in
        let wide64 s =
          Ogc_harness.Render.pct
            (List.assoc Ogc_isa.Width.W64 (Pipeline.width_distribution s))
        in
        let saving s =
          Ogc_harness.Render.pct
            (Account.savings
               ~baseline:(Account.total base.Pipeline.energy)
               ~improved:(Account.total s.Pipeline.energy))
        in
        [ name;
          wide64 conv; saving conv;
          wide64 lit; saving lit;
          wide64 dflt; saving dflt ])
      picks
  in
  Format.printf "%s@."
    (Ogc_harness.Render.table
       ~header:[ "Benchmark"; "conv 64b"; "conv save"; "literal 64b";
                 "literal save"; "default 64b"; "default save" ]
       rows);
  (* 2. VRS with and without constant propagation in the clones. *)
  Format.printf "VRS constant-propagation ablation (cost 50):@.";
  let rows =
    List.map
      (fun name ->
        let w = W.find name in
        let run constprop =
          let p = W.compile w W.Train in
          let cfg = { Vrs.default_config with constprop } in
          let rep = Vrs.run ~config:cfg p in
          let out = Interp.run p in
          (rep, out.Interp.steps)
        in
        let rep_on, steps_on = run true in
        let _, steps_off = run false in
        [ name;
          string_of_int (Vrs.specialized_count rep_on);
          string_of_int rep_on.Vrs.static_eliminated;
          string_of_int steps_off;
          string_of_int steps_on ])
      picks
  in
  Format.printf "%s@."
    (Ogc_harness.Render.table
       ~header:[ "Benchmark"; "points"; "static eliminated";
                 "dyn instrs (no constprop)"; "dyn instrs (constprop)" ]
       rows);
  (* 3. Syntactic trip counts (§2.3) vs the widening-based engine: how
     many loops the paper-literal method bounds. *)
  Format.printf "Syntactic trip-count coverage (paper §2.3 vs all loops):@.";
  let rows =
    List.map
      (fun name ->
        let w = W.find name in
        let p = W.compile w W.Train in
        let total = ref 0 and affine = ref 0 in
        List.iter
          (fun (f : Ogc_ir.Prog.func) ->
            let cfg = Ogc_ir.Cfg.of_func f in
            let dom = Ogc_ir.Dom.compute cfg in
            total :=
              !total
              + List.length (Ogc_ir.Loops.loops (Ogc_ir.Loops.compute cfg dom));
            affine := !affine + List.length (Ogc_core.Tripcount.analyze f))
          p.Ogc_ir.Prog.funcs;
        [ name; string_of_int !total; string_of_int !affine ])
      picks
  in
  Format.printf "%s@."
    (Ogc_harness.Render.table
       ~header:[ "Benchmark"; "natural loops"; "affine (§2.3) bounded" ]
       rows);
  (* 4. §2.4 memory handling: size-tagged cache values (the paper's
     choice) vs sign-extension at the cache boundary. *)
  Format.printf "Memory handling ablation (§2.4, VRP binary, software gating):@.";
  let rows =
    List.map
      (fun name ->
        let w = W.find name in
        let p = W.compile w W.Train in
        ignore (Vrp.run p);
        let e mode =
          Account.total
            (Pipeline.simulate ~memory_mode:mode ~policy:Policy.Software p)
              .Pipeline.energy
        in
        let tagged = e Pipeline.Tagged and sext = e Pipeline.Sign_extend in
        [ name;
          Printf.sprintf "%.0f" tagged;
          Printf.sprintf "%.0f" sext;
          Ogc_harness.Render.pct ((sext -. tagged) /. sext) ])
      picks
  in
  Format.printf "%s@."
    (Ogc_harness.Render.table
       ~header:[ "Benchmark"; "tagged cache (nJ)"; "sign-extended (nJ)";
                 "tagging advantage" ]
       rows);
  (* 5. Clock-gating aggressiveness: how much of the software savings the
     circuit style leaves on the table. *)
  Format.printf "Conditional-clocking ablation (VRP binary, software gating):@.";
  let rows =
    List.map
      (fun name ->
        let w = W.find name in
        let p = W.compile w W.Train in
        ignore (Vrp.run p);
        let base_p = W.compile w W.Train in
        let saving params =
          let e prog policy =
            Account.total
              (Pipeline.simulate ~params ~policy prog).Pipeline.energy
          in
          Account.savings
            ~baseline:(e base_p Policy.No_gating)
            ~improved:(e p Policy.Software)
        in
        [ name;
          Ogc_harness.Render.pct (saving Ogc_energy.Energy_params.ideal_gating);
          Ogc_harness.Render.pct (saving Ogc_energy.Energy_params.default);
          Ogc_harness.Render.pct
            (saving Ogc_energy.Energy_params.conservative_gating) ])
      picks
  in
  Format.printf "%s@."
    (Ogc_harness.Render.table
       ~header:[ "Benchmark"; "ideal gating"; "default (10% residual)";
                 "conservative (25%)" ]
       rows);
  (* 6. Machine-width sensitivity (beyond the paper): do the software
     savings survive on narrower / wider machines? *)
  Format.printf "Machine sensitivity extension (VRP energy saving):@.";
  let rows =
    List.map
      (fun name ->
        let w = W.find name in
        let opt = W.compile w W.Train in
        ignore (Vrp.run opt);
        let base = W.compile w W.Train in
        let saving machine =
          let e prog policy =
            Account.total
              (Pipeline.simulate ~machine ~policy prog).Pipeline.energy
          in
          Account.savings
            ~baseline:(e base Policy.No_gating)
            ~improved:(e opt Policy.Software)
        in
        [ name;
          Ogc_harness.Render.pct (saving Ogc_cpu.Machine_config.narrow2);
          Ogc_harness.Render.pct (saving Ogc_cpu.Machine_config.default);
          Ogc_harness.Render.pct (saving Ogc_cpu.Machine_config.wide8) ])
      picks
  in
  Format.printf "%s@."
    (Ogc_harness.Render.table
       ~header:[ "Benchmark"; "2-wide"; "4-wide (Table 2)"; "8-wide" ]
       rows);
  (* 7. Value-range (word-level) vs known-bits (per-bit, Budiu et al.,
     the paper's S5 contrast): which static analysis assigns narrower
     value widths?  Counts static value-producing instructions whose
     output width one domain bounds more tightly than the other. *)
  Format.printf
    "Domain ablation — intervals vs known-bits (static value widths):@.";
  let rows =
    List.map
      (fun name ->
        let w = W.find name in
        let p = W.compile w W.Train in
        let ivl = Vrp.analyze p in
        let bits = Ogc_core.Bitvalue.analyze p in
        let interval_better = ref 0
        and bits_better = ref 0
        and tie = ref 0 in
        Ogc_ir.Prog.iter_all_ins p (fun _ _ ins ->
            match
              ( Vrp.range_of ivl ins.Ogc_ir.Prog.iid,
                Ogc_core.Bitvalue.value_of bits ins.Ogc_ir.Prog.iid )
            with
            | Some rng, Some bv ->
              let wi = Ogc_core.Interval.width rng in
              let wb = Ogc_core.Bitvalue.width bv in
              let c = Ogc_isa.Width.compare wi wb in
              if c < 0 then incr interval_better
              else if c > 0 then incr bits_better
              else incr tie
            | _ -> ());
        [ name; string_of_int !interval_better; string_of_int !bits_better;
          string_of_int !tie ])
      picks
  in
  Format.printf "%s@."
    (Ogc_harness.Render.table
       ~header:[ "Benchmark"; "interval narrower"; "bits narrower"; "equal" ]
       rows);
  Format.printf
    "(Word-level ranges dominate for width assignment — the paper's S5\n\
     rationale for ranges over per-bit tracking; per-bit wins are\n\
     alignment facts that rarely reduce width.)@."
end
