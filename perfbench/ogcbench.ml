(* perfbench driver: runs one workload's fixed, seeded op list to
   completion, checks every output, and prints the metrics.  The last
   line of standard output is the JSON result; everything above it is
   for people.  See perfbench/README.md. *)

module J = Ogc_json.Json
open Util

(* Printed with --trace 0: name, unit. *)
let end_to_end =
  [ ("setup_s", "s"); ("peak_rss_mb", "MB"); ("ops_per_s", "1/s");
    ("op_p50_ms", "ms"); ("energy_ratio", "ratio") ]

(* Printed with --trace 1: name, unit.  A workload that does not call a
   layer reports 0 for its metrics. *)
let per_layer =
  [ ("cpu.sim_ns_per_instr", "ns"); ("ir.interp_ns_per_step", "ns");
    ("cpu.model_ns_per_instr", "ns"); ("cpu.sim_calls", "count");
    ("cpu.sim_minstr", "Minstr"); ("cpu.sim_share", "ratio");
    ("harness.baselines_s", "s"); ("harness.analyses_s", "s");
    ("harness.versions_s", "s"); ("harness.analyze_bench_s", "s");
    ("pass.store_hits", "count"); ("minic.lower_ms", "ms");
    ("regalloc.alloc_ms", "ms"); ("regalloc.rounds", "count");
    ("regalloc.spill_bytes", "bytes"); ("core.cleanup_ms", "ms");
    ("core.vrp_ms", "ms"); ("core.encode_ms", "ms");
    ("core.vrp_visits", "count"); ("core.vrp_rounds", "count");
    ("ir.validate_ms", "ms"); ("server.ping_us", "us");
    ("json.decode_us", "us"); ("server.key_us", "us");
    ("json.payload_us", "us"); ("server.analyze_ms", "ms");
    ("minic.compile_ms", "ms"); ("ir.interp_call_ms", "ms");
    ("cpu.sim_call_ms", "ms"); ("pass.digest_ms", "ms");
    ("server.hit_ratio", "ratio"); ("pass.store_hit_ratio", "ratio");
    ("exec.pool_wait_ms", "ms"); ("pass.profile_decode_us", "us");
    ("pass.profile_merge_us", "us"); ("core.vrs_ms", "ms");
    ("core.zspec_ms", "ms"); ("ir.profile_run_ms", "ms");
    ("server.respecs", "count"); ("server.stale_served", "count") ]
  @ List.map (fun l -> (l ^ ".share", "ratio")) layers
  @ [ ("trace.coverage", "ratio"); ("trace.overhead_pct", "%");
      ("trace.dropped_events", "count") ]

let workloads = [ "paper-grid"; "analyze-suite"; "serve-mix"; "serve-online" ]

let usage () =
  prerr_endline
    "usage: ogcbench --workload NAME --seed N --seconds S --trace 0|1\n\
    \                [--ogc PATH] [--inputs DIR] [--tmp DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 in
  let trace = ref (-1) and ogc = ref "_build/default/bin/ogc.exe" in
  let inputs = ref "perfbench/inputs" and tmp = ref ".perfbench" in
  let rec args = function
    | "--workload" :: v :: r -> workload := v; args r
    | "--seed" :: v :: r -> seed := int_of_string v; args r
    | "--seconds" :: v :: r -> seconds := int_of_string v; args r
    | "--trace" :: v :: r -> trace := int_of_string v; args r
    | "--ogc" :: v :: r -> ogc := v; args r
    | "--inputs" :: v :: r -> inputs := v; args r
    | "--tmp" :: v :: r -> tmp := v; args r
    | [] -> ()
    | a :: _ ->
      prerr_endline ("ogcbench: unknown argument " ^ a);
      usage ()
  in
  (try args (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if
    (not (List.mem !workload workloads))
    || !seed < 0 || !seconds < 1
    || (!trace <> 0 && !trace <> 1)
  then usage ();
  let traced = !trace = 1 and seconds = float_of_int !seconds in
  let seed = !seed in
  if not (Sys.file_exists !tmp) then Unix.mkdir !tmp 0o755;
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n%!" !workload seed
    seconds !trace;
  let r =
    match !workload with
    | "paper-grid" -> Grid.run ~seed ~seconds ~traced
    | "analyze-suite" -> Suite.run ~inputs_dir:!inputs ~seed ~seconds ~traced
    | "serve-mix" -> Mix.run ~ogc:!ogc ~tmp:!tmp ~seed ~seconds ~traced
    | _ ->
      Online.run ~ogc:!ogc ~tmp:!tmp ~inputs_dir:!inputs ~seed ~seconds
        ~traced
  in
  let attempted = Array.length r.ops and failed = !nfail in
  (* Per-class latency, one class per row; a tail only where the class
     has at least 100 ops in the run. *)
  let classes =
    List.sort_uniq compare (Array.to_list (Array.map (fun o -> o.cls) r.ops))
  in
  let lat cls =
    Array.of_list
      (List.filter_map
         (fun o -> if o.cls = cls then Some (o.secs *. 1000.0) else None)
         (Array.to_list r.ops))
  in
  Printf.printf "inputs digest %s\n" r.digest;
  Printf.printf "%-8s %6s %12s %12s\n" "class" "n" "p50_ms" "p90_ms";
  List.iter
    (fun c ->
      let xs = lat c in
      let n = Array.length xs in
      Printf.printf "%-8s %6d %12.4f %12s\n" c n (median xs)
        (if n >= 100 then Printf.sprintf "%.4f" (quantile xs 0.9) else "-"))
    classes;
  let main = lat r.main in
  let e2e =
    [ ("setup_s", median r.setups, Array.length r.setups);
      ("peak_rss_mb", r.rss_mb, 1);
      ("ops_per_s", float_of_int attempted /. r.timed_s, attempted);
      ("op_p50_ms", median main, Array.length main);
      ("energy_ratio", geomean r.energy, List.length r.energy) ]
  in
  let fail_ratio = float_of_int failed /. float_of_int (max 1 attempted) in
  Printf.printf "fail_ratio %.6f (%d of %d ops)\n" fail_ratio failed attempted;
  List.iter (fun m -> Printf.printf "  failure: %s\n" m) r.failures;
  let metrics =
    if not traced then begin
      Printf.printf "%-14s %14s %-6s %8s\n" "metric" "value" "unit" "samples";
      List.map
        (fun (name, v, n) ->
          let u = List.assoc name end_to_end in
          Printf.printf "%-14s %14.6f %-6s %8d\n" name v u n;
          (name, v, u))
        e2e
    end
    else begin
      let value name =
        Option.value ~default:0.0 (List.assoc_opt name r.layer)
      in
      Printf.printf "%-26s %14s %-6s %8s\n" "layer metric" "value" "unit"
        "samples";
      List.iter
        (fun (name, u) ->
          Printf.printf "%-26s %14.6f %-6s %8s\n" name (value name) u
            (match List.assoc_opt name r.samples with
            | Some n -> string_of_int n
            | None -> "-"))
        per_layer;
      Printf.printf "layer shares of %s op time:" !workload;
      List.iter
        (fun l -> Printf.printf " %s=%.1f%%" l (100.0 *. value (l ^ ".share")))
        layers;
      print_newline ();
      let path =
        Filename.concat !tmp (Printf.sprintf "trace-%s-%d.json" !workload seed)
      in
      let oc = open_out_bin path in
      output_string oc
        (J.to_string ~indent:false (Ogc_obs.Span.merge_processes r.docs));
      close_out oc;
      Printf.printf "trace_event file %s (dropped events %g)\n" path
        (value "trace.dropped_events");
      List.map (fun (name, u) -> (name, value name, u)) per_layer
    end
  in
  (* Everything that must repeat exactly on one seed, for
     perfbench/test_repeat.py. *)
  let exact () =
    List.map
      (fun n -> (n, J.Str (Printf.sprintf "%.17g" (List.assoc n r.layer))))
      r.exact
  in
  let counts = List.map (fun c -> (c, J.Int (Array.length (lat c)))) classes in
  print_endline
    ("repeat "
    ^ J.to_string ~indent:false
        (J.Obj
           ([ ("workload", J.Str !workload); ("digest", J.Str r.digest);
              ("classes", J.Obj counts);
              ("energy_ratio",
               J.Str (Printf.sprintf "%.17g" (geomean r.energy))) ]
           @ if traced then [ ("exact", J.Obj (exact ())) ] else [])));
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  print_endline
    (J.to_string ~indent:false
       (J.Obj
          [ ("correct", J.Bool (failed = 0 && attempted > 0 && finite));
            ("attempted", J.Int attempted); ("failed", J.Int failed);
            ("metrics",
             J.Obj
               (List.map
                  (fun (name, v, u) ->
                    (name, J.Obj [ ("value", J.Float v); ("unit", J.Str u) ]))
                  metrics)) ]))
