(* Machine-readable results: JSON printer/parser, the gated-row file
   round-trip, parallel-vs-sequential byte identity, and the CI
   regression gate replayed through the serialized baseline. *)

module Results = Ogc_harness.Results
module Experiments = Ogc_harness.Experiments
module Json = Ogc_json.Json
module Account = Ogc_energy.Account
module Pipeline = Ogc_cpu.Pipeline

(* --- the Json module itself ------------------------------------------------ *)

let test_json_basics () =
  let v =
    Json.Obj
      [
        ("a", Json.Int (-3));
        ("b", Json.Float 0.1);
        ("c", Json.Str "a \"quoted\"\nline\t\\");
        ("d", Json.Arr [ Json.Bool true; Json.Bool false; Json.Null ]);
        ("empty_arr", Json.Arr []);
        ("empty_obj", Json.Obj []);
        ("nested", Json.Obj [ ("x", Json.Arr [ Json.Int 1; Json.Float 2.5 ]) ]);
      ]
  in
  let s = Json.to_string v in
  Alcotest.(check bool) "pretty round-trip" true (Json.of_string s = v);
  let s2 = Json.to_string ~indent:false v in
  Alcotest.(check bool) "compact round-trip" true (Json.of_string s2 = v);
  (* Printing is a fixed point: parse-then-print returns the same bytes. *)
  Alcotest.(check string) "stable bytes" s
    (Json.to_string (Json.of_string s));
  (* Doubles survive exactly, including ugly ones. *)
  List.iter
    (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Json.Float f' -> Alcotest.(check (float 0.0)) "exact float" f f'
      | Json.Int i -> Alcotest.(check (float 0.0)) "as int" f (float_of_int i)
      | _ -> Alcotest.fail "not a number")
    [ 0.1; 1.0 /. 3.0; 1e-300; 6.02e23; -0.0; 12345.0 ]

let test_json_errors () =
  let bad s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\" 1}";
  bad "tru";
  bad "\"unterminated";
  bad "1 2";
  Alcotest.check_raises "shape error names the member"
    (Json.Parse_error "member \"n\": expected an integer")
    (fun () -> ignore (Json.get_int "n" (Json.Obj [ ("n", Json.Str "x") ])))

(* --- collected results ---------------------------------------------------- *)

(* One small workload, collected once and shared by the tests below. *)
let collected = lazy (Results.collect ~quick:true ~only:[ "compress" ] ~jobs:2 ())

(* The bench driver adds a fleet burst; the tests give the collection a
   fixed one so the fleet rows exist. *)
let fleet0 =
  { Results.fb_shards = 3; fb_requests = 240; fb_failed = 0; fb_hedged = 30;
    fb_p50_ms = 1.5; fb_p95_ms = 120.0; fb_p99_ms = 260.0 }

let with_fleet () = { (Lazy.force collected) with Results.fleet = Some fleet0 }

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_rows_roundtrip () =
  let rows = Results.gated (with_fleet ()) in
  let phases = [ ("baselines", 1.25); ("versions", 3.5) ] in
  let s = Json.to_string (Results.rows_to_json ~phases rows) in
  Alcotest.(check (list (pair string (float 0.0))))
    "every value survives exactly"
    (List.map (fun r -> (r.Results.series ^ "/" ^ r.Results.key, r.value)) rows)
    (Results.rows_of_json (Json.of_string s));
  (* Header, [rows] and [phases] braces, then one line per row/phase. *)
  Alcotest.(check int) "one line per row"
    (List.length rows + List.length phases + 9)
    (List.length (String.split_on_char '\n' s));
  Alcotest.(check (list string)) "every series is present"
    [ "analyze"; "cell"; "digest"; "fleet"; "mode"; "spill" ]
    (List.sort_uniq compare (List.map (fun r -> r.Results.series) rows));
  (* A version-1 file (whole Pipeline.stats tables) is refused with a
     pointer to re-blessing, not misread. *)
  match
    Results.rows_of_json
      (Json.Obj
         [ ("format", Json.Str "ogc-results"); ("version", Json.Int 1);
           ("quick", Json.Bool true); ("workloads", Json.Arr []) ])
  with
  | exception Json.Parse_error msg ->
    Alcotest.(check bool) "says to re-bless" true (contains msg "re-bless")
  | _ -> Alcotest.fail "accepted a version-1 results file"

let test_parallel_collection_identical () =
  (* The acceptance bar: the collection grid sharded over domains gives
     byte-identical reports to the sequential run.  Analyze wall times
     are clock noise, not results — scrub them before comparing; the
     deterministic visit/round/def counters stay under the check. *)
  let r1 =
    Results.without_timings
      (Results.collect ~quick:true ~only:[ "compress" ] ~jobs:1 ())
  in
  let r2 = Results.without_timings (Lazy.force collected) in
  Alcotest.(check string) "render_all identical" (Experiments.render_all r1)
    (Experiments.render_all r2);
  Alcotest.(check string) "json identical"
    (Json.to_string (Results.to_json r1))
    (Json.to_string (Results.to_json r2))

(* --- the comparator on hand-made rows ------------------------------------- *)

let test_regression_diff () =
  let row ?(series = "cell") key gate value =
    { Results.series; key; value; gate }
  in
  let fires gate ~base ~cur =
    Results.compare_rows ~baseline:[ ("cell/w/c/m", base) ]
      [ row "w/c/m" gate cur ]
    <> []
  in
  let check name expect got = Alcotest.(check bool) name expect got in
  check "exact: equal" false (fires Exact ~base:7.0 ~cur:7.0);
  check "exact: up" true (fires Exact ~base:7.0 ~cur:8.0);
  check "exact: down" true (fires Exact ~base:7.0 ~cur:6.0);
  check "up: 5% is within 5%" false
    (fires (Worse_up 0.05) ~base:100.0 ~cur:105.0);
  check "up: 6%" true (fires (Worse_up 0.05) ~base:100.0 ~cur:106.0);
  check "up: a drop" false (fires (Worse_up 0.05) ~base:100.0 ~cur:50.0);
  check "up: from zero" true (fires (Worse_up 0.05) ~base:0.0 ~cur:1.0);
  check "down: 6%" true (fires (Worse_down 0.05) ~base:100.0 ~cur:94.0);
  check "down: a rise" false (fires (Worse_down 0.05) ~base:100.0 ~cur:200.0);
  check "time: 200% is within 200%" false (fires (Time 2.0) ~base:1.0 ~cur:3.0);
  check "time: 210%" true (fires (Time 2.0) ~base:1.0 ~cur:3.1);
  (* Keys name the table's columns; a row the baseline lacks is one
     missing regression, never a silent pass. *)
  let regs =
    Results.compare_rows ~baseline:[]
      [ row ~series:"spill" "gcc/spill_traffic" (Worse_up 0.05) 10.0;
        row ~series:"cell" "gcc/vrs50/ipc" (Worse_down 0.05) 2.0 ]
  in
  Alcotest.(check (list (triple string string string))) "missing rows"
    [ ("gcc", "spill", "spill_traffic"); ("gcc", "vrs50", "ipc") ]
    (List.map
       (fun (r : Results.regression) -> (r.r_workload, r.r_config, r.r_metric))
       regs);
  check "missing has no baseline" true
    (List.for_all
       (fun (r : Results.regression) -> Float.is_nan r.r_baseline)
       regs);
  check "rendered as missing" true
    (contains (Results.render_regressions regs) "missing");
  (* A mode mismatch drowns out everything else. *)
  let regs =
    Results.compare_rows
      ~baseline:[ ("mode/*/quick", 0.0); ("cell/w/c/m", 1.0) ]
      [ row ~series:"mode" "*/quick" Exact 1.0; row "w/c/m" Exact 2.0 ]
  in
  Alcotest.(check (list string)) "only the mode row" [ "mode" ]
    (List.map (fun (r : Results.regression) -> r.r_config) regs);
  Alcotest.(check string) "clean" "no regressions\n"
    (Results.render_regressions [])

(* --- every gate, replayed through the serialized baseline ----------------- *)

(* Each case perturbs the collection into a baseline and/or a current
   run, writes the baseline's rows to JSON, reads them back, compares,
   and expects exactly the listed (workload, config, metric) cells. *)

let regressions ~baseline ~current =
  let values =
    Results.rows_of_json
      (Json.of_string
         (Json.to_string
            (Results.rows_to_json ~phases:[] (Results.gated baseline))))
  in
  Results.compare_rows ~baseline:values (Results.gated current)

let on_w f (r : Results.t) =
  { r with Results.workloads = List.map f r.Results.workloads }

let on_ab f (r : Results.t) =
  { r with
    Results.analyze = List.map (fun (n, ab) -> (n, f ab)) r.Results.analyze }

let on_fleet f (r : Results.t) =
  { r with Results.fleet = Option.map f r.Results.fleet }

let energy ?(scale = 1.0) ?(traffic = 1.0) (s : Pipeline.stats) =
  let e = s.Pipeline.energy in
  { s with
    Pipeline.energy =
      Account.of_values
        ~spill:(Account.spill_traffic e *. traffic)
        (List.map (fun (st, x) -> (st, x *. scale)) (Account.by_structure e)) }

type case = {
  name : string;
  baseline : Results.t -> Results.t;
  current : Results.t -> Results.t;
  expect : (string * string * string) list;
  missing : bool;  (** [expect] are rows the baseline lacks *)
  moves_digest : bool;
      (** the perturbation changes compress's report, so its digest row
          fires too *)
}

let case ?(baseline = Fun.id) ?(current = Fun.id) ?(missing = false)
    ?(moves_digest = true) name expect =
  { name; baseline; current; expect; missing; moves_digest }

let c = "compress"

(* Gates the comparator had before the row schema; the same expected
   sets held against the former per-series comparator. *)
let existing_cases =
  [
    case "clean self-diff" [] ~moves_digest:false;
    case "energy +100%"
      ~baseline:
        (on_w (fun w ->
             { w with Results.vrp_sw = energy ~scale:0.5 w.vrp_sw }))
      [ (c, "vrp_sw", "energy_nj") ];
    case "energy +3% is within 5%"
      ~baseline:
        (on_w (fun w ->
             { w with Results.vrp_sw = energy ~scale:0.97 w.vrp_sw }))
      [];
    case "energy drop is no regression"
      ~current:
        (on_w (fun w ->
             { w with Results.vrp_sw = energy ~scale:0.5 w.vrp_sw }))
      [];
    case "ipc -50%"
      ~baseline:
        (on_w (fun w ->
             { w with
               Results.base_none =
                 { w.base_none with
                   Pipeline.cycles = w.base_none.Pipeline.cycles / 2 } }))
      [ (c, "base_none", "ipc") ];
    case "vrs50_sig energy +20%"
      ~current:
        (on_w (fun w ->
             { w with Results.vrs50_sig = energy ~scale:1.2 w.vrs50_sig }))
      [ (c, "vrs50_sig", "energy_nj") ];
    case "quick/full mismatch is one mode row"
      ~baseline:(fun r -> { r with Results.quick = false })
      [ ("*", "mode", "quick") ] ~moves_digest:false;
    case "spill slot bytes +25%"
      ~baseline:
        (on_w (fun w ->
             { w with
               Results.spill_slots_bytes = w.spill_slots_bytes * 4 / 5 }))
      [ (c, "spill", "spill_slots_bytes") ];
    case "spill appearing from zero"
      ~baseline:
        (on_w (fun w ->
             { w with
               Results.spill_slots_bytes = 0;
               spill_slots_naive_bytes = 0 }))
      [ (c, "spill", "spill_slots_bytes") ];
    case "spill traffic +100%"
      ~baseline:
        (on_w (fun w ->
             { w with Results.base_none = energy ~traffic:0.5 w.base_none }))
      [ (c, "spill", "spill_traffic") ];
    case "spill traffic appearing from zero"
      ~baseline:
        (on_w (fun w ->
             { w with Results.base_none = energy ~traffic:0.0 w.base_none }))
      [ (c, "spill", "spill_traffic") ];
    case "width win lost"
      ~current:
        (on_w (fun w ->
             { w with Results.spill_slots_naive_bytes = w.spill_slots_bytes }))
      [ (c, "spill", "spill_width_win") ];
    case "analyze visits +10%"
      ~current:
        (on_ab (fun ab ->
             { ab with Results.ab_visits = ab.ab_visits * 11 / 10 }))
      [ (c, "analyze", "analyze_visits") ];
    case "analyze seconds +300%"
      ~baseline:(on_ab (fun ab -> { ab with Results.ab_seconds = 0.002 }))
      ~current:(on_ab (fun ab -> { ab with Results.ab_seconds = 0.008 }))
      [ (c, "analyze", "analyze_seconds") ] ~moves_digest:false;
    case "analyze seconds +150% is within 200%"
      ~baseline:(on_ab (fun ab -> { ab with Results.ab_seconds = 0.002 }))
      ~current:(on_ab (fun ab -> { ab with Results.ab_seconds = 0.005 }))
      [] ~moves_digest:false;
    case "fleet failed"
      ~current:(on_fleet (fun f -> { f with Results.fb_failed = 2 }))
      [ ("*", "fleet", "failed") ] ~moves_digest:false;
    case "fleet p50/p95 +300%"
      ~current:
        (on_fleet (fun f ->
             { f with
               Results.fb_p50_ms = f.fb_p50_ms *. 4.0;
               fb_p95_ms = f.fb_p95_ms *. 4.0 }))
      [ ("*", "fleet", "fleet_p50_ms"); ("*", "fleet", "fleet_p95_ms") ]
      ~moves_digest:false;
    case "fleet p50 +150% is within 200%"
      ~current:
        (on_fleet (fun f -> { f with Results.fb_p50_ms = f.fb_p50_ms *. 2.5 }))
      [] ~moves_digest:false;
  ]

(* Gates the row schema added: the effort counters exactly, and no
   vacuous pass when the baseline lacks a row (the former comparator
   reported nothing for any of these). *)
let added_cases =
  [
    case "visits +1 is gated exactly"
      ~current:
        (on_ab (fun ab -> { ab with Results.ab_visits = ab.ab_visits + 1 }))
      [ (c, "analyze", "analyze_visits") ];
    case "visits -1 is gated exactly"
      ~current:
        (on_ab (fun ab -> { ab with Results.ab_visits = ab.ab_visits - 1 }))
      [ (c, "analyze", "analyze_visits") ];
    case "rounds +1 is gated exactly"
      ~current:
        (on_ab (fun ab -> { ab with Results.ab_rounds = ab.ab_rounds + 1 }))
      [ (c, "analyze", "analyze_rounds") ];
    case "fleet missing from the baseline"
      ~baseline:(fun r -> { r with Results.fleet = None })
      [ ("*", "fleet", "shards"); ("*", "fleet", "requests");
        ("*", "fleet", "failed"); ("*", "fleet", "fleet_p50_ms");
        ("*", "fleet", "fleet_p95_ms") ]
      ~missing:true ~moves_digest:false;
    case "fleet run of another size"
      ~baseline:(on_fleet (fun f -> { f with Results.fb_requests = 120 }))
      [ ("*", "fleet", "requests") ] ~moves_digest:false;
    case "analyze series missing from the baseline"
      ~baseline:(fun r -> { r with Results.analyze = [] })
      [ (c, "analyze", "analyze_visits"); (c, "analyze", "analyze_rounds");
        (c, "analyze", "analyze_seconds") ]
      ~missing:true;
    case "VRS label missing from the baseline"
      ~baseline:
        (on_w (fun w ->
             { w with Results.vrs = List.map (fun (_, s) -> (70, s)) w.vrs }))
      [ (c, "vrs50", "energy_nj"); (c, "vrs50", "ipc") ]
      ~missing:true;
  ]

let test_perturbed_json_baseline () =
  let r = with_fleet () in
  (* The spill cases need a workload that spills into width-aware slots. *)
  (match r.Results.workloads with
  | [ w ] ->
    Alcotest.(check bool) "compress spills narrower than naive" true
      (w.spill_slots_bytes > 0
      && w.spill_slots_bytes < w.spill_slots_naive_bytes
      && Account.spill_traffic w.base_none.Pipeline.energy > 0.0)
  | _ -> Alcotest.fail "expected one workload");
  let show l =
    String.concat "; " (List.map (fun (w, c, m) -> w ^ "/" ^ c ^ "/" ^ m) l)
  in
  List.iter
    (fun k ->
      let digest, regs =
        List.partition
          (fun (g : Results.regression) -> g.r_config = "digest")
          (regressions ~baseline:(k.baseline r) ~current:(k.current r))
      in
      Alcotest.(check string) k.name
        (show (List.sort compare k.expect))
        (show
           (List.sort compare
              (List.map
                 (fun (g : Results.regression) ->
                   (g.r_workload, g.r_config, g.r_metric))
                 regs)));
      Alcotest.(check bool) (k.name ^ ": reported missing") k.missing
        (regs <> []
        && List.for_all
             (fun (g : Results.regression) -> Float.is_nan g.r_baseline)
             regs);
      Alcotest.(check (list string)) (k.name ^ ": digest")
        (if k.moves_digest then [ c ] else [])
        (List.map (fun (g : Results.regression) -> g.r_workload) digest))
    (existing_cases @ added_cases)

let () =
  Alcotest.run "results-json"
    [
      ( "json",
        [
          Alcotest.test_case "print/parse basics" `Quick test_json_basics;
          Alcotest.test_case "parse errors" `Quick test_json_errors;
        ] );
      ( "results",
        [
          Alcotest.test_case "rows round-trip" `Slow test_rows_roundtrip;
          Alcotest.test_case "parallel = sequential" `Slow
            test_parallel_collection_identical;
          Alcotest.test_case "regression diff" `Quick test_regression_diff;
          Alcotest.test_case "diff through serialized baseline" `Slow
            test_perturbed_json_baseline;
        ] );
    ]
