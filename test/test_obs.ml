(* Observability tests: the sharded metrics registry (merge = Σ shards
   under real multi-domain recording), the Prometheus exposition format,
   trace-event export well-formedness, structured logging, and the
   determinism contract — an `analyze` result is byte-identical whether
   or not tracing/metrics are recording. *)

module J = Ogc_json.Json
module Metrics = Ogc_obs.Metrics
module Span = Ogc_obs.Span
module Log = Ogc_obs.Log
module Protocol = Ogc_server.Protocol
module Minic = Ogc_minic.Minic

(* Registration happens once, at module init, like production code. *)
let m_hist =
  Metrics.histogram ~buckets:[| 1.0; 2.0; 4.0; 8.0 |] "test_obs_hist"

let m_ctr = Metrics.counter "test_obs_events_total"
let m_g = Metrics.gauge "test_obs_level"

let with_metrics f =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) f

(* --- gating ---------------------------------------------------------------- *)

let test_disabled_is_noop () =
  Metrics.reset ();
  Metrics.set_enabled false;
  Metrics.incr m_ctr;
  Metrics.observe m_hist 1.5;
  Alcotest.(check (float 0.0)) "counter untouched" 0.0
    (Metrics.counter_value m_ctr);
  let counts, sum = Metrics.histogram_counts m_hist in
  Alcotest.(check (float 0.0)) "hist sum untouched" 0.0 sum;
  Alcotest.(check (float 0.0)) "hist counts untouched" 0.0
    (Array.fold_left ( +. ) 0.0 counts);
  (* Gauges track levels regardless of the flag, so paired add/sub pairs
     never drift across an enable/disable flip. *)
  Metrics.gauge_add m_g 3;
  Metrics.gauge_add m_g (-1);
  Alcotest.(check int) "gauge live while disabled" 2 (Metrics.gauge_value m_g)

(* --- merge = Σ shards under multi-domain recording ------------------------- *)

(* Split [xs] into [n] round-robin chunks. *)
let chunks n xs =
  let buckets = Array.make n [] in
  List.iteri (fun i x -> buckets.(i mod n) <- x :: buckets.(i mod n)) xs;
  Array.to_list buckets

let record_across_domains jobs obs =
  with_metrics (fun () ->
      (match chunks jobs obs with
      | [] -> ()
      | main :: rest ->
        let ds =
          List.map
            (fun chunk ->
              Domain.spawn (fun () ->
                  List.iter (fun v -> Metrics.observe m_hist v) chunk))
            rest
        in
        (* The main domain records too: its shard must merge with the
           workers'. *)
        List.iter (fun v -> Metrics.observe m_hist v) main;
        List.iter Domain.join ds);
      let merged, sum = Metrics.histogram_counts m_hist in
      let shards = Metrics.histogram_shards m_hist in
      (merged, sum, shards))

let prop_merge_is_shard_sum jobs =
  QCheck.Test.make
    ~name:(Printf.sprintf "histogram merge = sum of shards (jobs %d)" jobs)
    ~count:(if jobs >= 8 then 10 else 25)
    QCheck.(list_of_size Gen.(0 -- 200) (map float_of_int (0 -- 12)))
    (fun obs ->
      let merged, sum, shards = record_across_domains jobs obs in
      let total = Array.fold_left ( +. ) 0.0 merged in
      (* Every observation landed in exactly one merged bucket... *)
      total = float_of_int (List.length obs)
      && sum = List.fold_left ( +. ) 0.0 obs
      (* ... and the merged view is exactly the element-wise shard sum. *)
      && Array.for_all
           (fun ok -> ok)
           (Array.mapi
              (fun i m ->
                m
                = List.fold_left (fun acc s -> acc +. s.(i)) 0.0 shards)
              merged))

(* --- Prometheus exposition ------------------------------------------------- *)

let name_ok s =
  s <> ""
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
               | _ -> false)
       s

(* One sample line: name, optional {labels}, a space, a float value. *)
let line_ok line =
  match String.rindex_opt line ' ' with
  | None -> false
  | Some sp ->
    let head = String.sub line 0 sp in
    let value = String.sub line (sp + 1) (String.length line - sp - 1) in
    Float.is_finite (float_of_string value)
    && (match String.index_opt head '{' with
       | None -> name_ok head
       | Some lb ->
         String.length head > 0
         && head.[String.length head - 1] = '}'
         && name_ok (String.sub head 0 lb))

let test_exposition_format () =
  with_metrics (fun () ->
      Metrics.incr m_ctr;
      Metrics.gauge_set m_g 7;
      List.iter (Metrics.observe m_hist) [ 0.5; 3.0; 100.0 ];
      let text = Metrics.to_prometheus () in
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
      in
      Alcotest.(check bool) "has lines" true (lines <> []);
      List.iter
        (fun l ->
          Alcotest.(check bool) (Printf.sprintf "line %S well-formed" l) true
            (line_ok l))
        lines;
      let has sub =
        List.exists
          (fun l -> String.length l >= String.length sub
                    && String.sub l 0 (String.length sub) = sub)
          lines
      in
      Alcotest.(check bool) "counter present" true (has "test_obs_events_total");
      Alcotest.(check bool) "+Inf bucket present" true
        (List.exists
           (fun l ->
             has "test_obs_hist_bucket"
             && String.length l > 0
             &&
             match String.index_opt l '{' with
             | Some _ -> true
             | None -> false)
           lines);
      (* Histogram buckets are cumulative and end at the total count. *)
      let counts, _ = Metrics.histogram_counts m_hist in
      Alcotest.(check (float 0.0)) "3 observations" 3.0
        (Array.fold_left ( +. ) 0.0 counts);
      let value_of prefix =
        match
          List.find_opt
            (fun l ->
              String.length l > String.length prefix
              && String.sub l 0 (String.length prefix) = prefix)
            lines
        with
        | Some l ->
          float_of_string
            (String.sub l
               (String.rindex l ' ' + 1)
               (String.length l - String.rindex l ' ' - 1))
        | None -> Alcotest.failf "no %s line" prefix
      in
      (* The +Inf bucket and _count both equal the total — this is the
         regression test for cumulative rendering. *)
      Alcotest.(check (float 0.0)) "+Inf bucket = total" 3.0
        (value_of "test_obs_hist_bucket{le=\"+Inf\"}");
      Alcotest.(check (float 0.0)) "_count = total" 3.0
        (value_of "test_obs_hist_count");
      (* 0.5 <= 1.0: the first bucket already holds one observation. *)
      Alcotest.(check (float 0.0)) "first bucket cumulative" 1.0
        (value_of "test_obs_hist_bucket{le=\"1.0\"}"))

(* --- trace export ---------------------------------------------------------- *)

let test_trace_export () =
  Span.reset ();
  Span.set_enabled true;
  Fun.protect ~finally:(fun () -> Span.set_enabled false) @@ fun () ->
  Span.with_ ~name:"outer" (fun () ->
      Span.with_ ~name:"inner" ~args:[ ("k", J.Int 1) ] (fun () -> ());
      Span.instant "tick");
  (try Span.with_ ~name:"raises" (fun () -> failwith "boom")
   with Failure _ -> ());
  let doc = Span.export () in
  let events =
    match J.member "traceEvents" doc with
    | J.Arr evs -> evs
    | _ -> Alcotest.fail "traceEvents is not an array"
  in
  let phases =
    List.filter_map
      (fun e ->
        match (J.member "ph" e, J.member "name" e) with
        | J.Str ph, J.Str name -> Some (ph, name)
        | _ -> None)
      events
  in
  let count ph = List.length (List.filter (fun (p, _) -> p = ph) phases) in
  (* 3 with_ calls: begins and ends balance even across the exception. *)
  Alcotest.(check int) "begin events" 3 (count "B");
  Alcotest.(check int) "end events" 3 (count "E");
  Alcotest.(check int) "instant events" 1 (count "i");
  Alcotest.(check bool) "thread metadata" true (count "M" >= 1);
  (* Timestamps are sorted, so viewers never reorder. *)
  let ts =
    List.filter_map
      (fun e ->
        match (J.member "ph" e, J.member "ts" e) with
        | J.Str "M", _ -> None
        | _, J.Int t -> Some t
        | _, J.Float t -> Some (int_of_float t)
        | _ -> None)
      events
  in
  Alcotest.(check bool) "timestamps sorted" true
    (List.for_all2 (fun a b -> a <= b)
       (List.filteri (fun i _ -> i < List.length ts - 1) ts)
       (List.tl ts));
  Span.reset ()

(* --- span ids, context, drop accounting ------------------------------------ *)

let span_ids_of doc =
  let events =
    match J.member "traceEvents" doc with J.Arr evs -> evs | _ -> []
  in
  List.filter_map
    (fun e ->
      match (J.member "ph" e, J.member "args" e) with
      | J.Str "B", args -> (
        match J.member "span_id" args with J.Int i -> Some (e, i) | _ -> None)
      | _ -> None)
    events

let test_span_ids_and_context () =
  Span.reset ();
  Span.set_enabled true;
  Fun.protect ~finally:(fun () -> Span.set_enabled false; Span.reset ())
  @@ fun () ->
  Span.with_context (Some { Span.trace = "t-ctx"; parent = 7 }) (fun () ->
      Span.with_ ~name:"outer" (fun () ->
          Span.with_ ~name:"inner" (fun () -> ())));
  let spans = span_ids_of (Span.export ()) in
  let ids = List.map snd spans in
  Alcotest.(check int) "two spans" 2 (List.length ids);
  Alcotest.(check bool) "span ids unique" true
    (List.length (List.sort_uniq compare ids) = List.length ids);
  let arg_of name k =
    match
      List.find_opt
        (fun (e, _) -> J.member "name" e = J.Str name)
        spans
    with
    | Some (e, _) -> J.member k (J.member "args" e)
    | None -> Alcotest.failf "no span %s" name
  in
  Alcotest.(check bool) "outer carries trace id" true
    (arg_of "outer" "trace_id" = J.Str "t-ctx");
  Alcotest.(check bool) "outer nests under ambient parent" true
    (arg_of "outer" "parent_span" = J.Int 7);
  (* The inner span's parent is the outer span's own id: with_ rebinds
     the ambient parent for its children. *)
  let outer_sid = arg_of "outer" "span_id" in
  Alcotest.(check bool) "inner nests under outer" true
    (arg_of "inner" "parent_span" = outer_sid)

(* --- spans of the layers under compile_with_info ------------------------- *)

(* The begin events of a traced [Minic.compile_with_info] of an example
   program, run under a trace context so each span records its parent. *)
let traced_compile file =
  let src =
    In_channel.with_open_bin ("../examples/" ^ file) In_channel.input_all
  in
  Span.reset ();
  Span.set_enabled true;
  Fun.protect ~finally:(fun () -> Span.set_enabled false; Span.reset ())
  @@ fun () ->
  Span.with_context (Some { Span.trace = "t-compile"; parent = 0 }) (fun () ->
      ignore (Minic.compile_with_info src));
  span_ids_of (Span.export ())

let spans_named name spans =
  List.filter (fun (e, _) -> J.member "name" e = J.Str name) spans

(* Lowering and allocation get a span each; the width oracle runs only
   when a function spills, and then inside allocation. *)
let test_compile_layer_spans () =
  let one spans name =
    match spans_named name spans with
    | [ (e, id) ] -> (J.member "args" e, id)
    | l -> Alcotest.failf "%d %s spans" (List.length l) name
  in
  let spans = traced_compile "register_pressure.mc" in
  ignore (one spans "minic:lower");
  let _, regalloc_id = one spans "regalloc" in
  let oracle, _ = one spans "vrp:ranges" in
  Alcotest.(check bool) "vrp:ranges nests in regalloc" true
    (J.member "parent_span" oracle = J.Int regalloc_id);
  let spans = traced_compile "dotprod.mc" in
  ignore (one spans "minic:lower");
  ignore (one spans "regalloc");
  Alcotest.(check int) "no width oracle without a spill" 0
    (List.length (spans_named "vrp:ranges" spans))

let test_span_drop_accounting () =
  Span.reset ();
  with_metrics @@ fun () ->
  Span.set_enabled true;
  Fun.protect ~finally:(fun () -> Span.set_enabled false; Span.reset ())
  @@ fun () ->
  let cap = 1 lsl 15 in
  (* 2 events per span: overflow one thread's ring deterministically. *)
  let spans = (cap / 2) + 500 in
  for _ = 1 to spans do
    Span.with_ ~name:"spin" (fun () -> ())
  done;
  let dropped = Span.dropped_events () in
  Alcotest.(check int) "dropped = total - capacity" ((2 * spans) - cap) dropped;
  (match J.member "dropped_events" (Span.export ()) with
  | J.Int n -> Alcotest.(check int) "export reports drops" dropped n
  | _ -> Alcotest.fail "no dropped_events member");
  let expo = Metrics.to_prometheus () in
  Alcotest.(check bool) "drop counter exported" true
    (List.exists
       (fun l ->
         String.length l > 22
         && String.sub l 0 22 = "ogc_span_dropped_total"
         && float_of_string
              (String.sub l
                 (String.rindex l ' ' + 1)
                 (String.length l - String.rindex l ' ' - 1))
            = float_of_int dropped)
       (String.split_on_char '\n' expo))

(* --- merged fleet traces are well-formed ------------------------------------ *)

(* Build per-process export documents with the real recorder (reset
   between "processes"), cross-linked by wire flow ids, then merge. *)
let build_fleet_docs ~procs ~flows =
  let trace = "t-merge" in
  List.init procs (fun pi ->
      Span.reset ();
      Span.set_enabled true;
      Span.with_context (Some { Span.trace; parent = 0 }) (fun () ->
          for f = 1 to flows do
            let id = Span.wire_flow_id ~trace ~parent:f in
            Span.with_ ~name:(Printf.sprintf "edge%d" f) (fun () ->
                (* process 0 starts every flow; process 1 finishes it. *)
                if pi = 0 then Span.flow_out ~id
                else if pi = 1 then Span.flow_in ~id)
          done);
      let doc = Span.export () in
      Span.set_enabled false;
      Span.reset ();
      (Printf.sprintf "proc%d" pi, doc))

let prop_merged_fleet_well_formed =
  QCheck.Test.make ~name:"merged fleet traces well-formed" ~count:30
    QCheck.(pair (1 -- 4) (0 -- 8))
    (fun (procs, flows) ->
      let merged = Span.merge_processes (build_fleet_docs ~procs ~flows) in
      let events =
        match J.member "traceEvents" merged with J.Arr e -> e | _ -> []
      in
      let pid_of e = match J.member "pid" e with J.Int p -> p | _ -> -1 in
      (* Every process got its own pid track with a name. *)
      let named_pids =
        List.filter_map
          (fun e ->
            match (J.member "ph" e, J.member "name" e) with
            | J.Str "M", J.Str "process_name" -> Some (pid_of e)
            | _ -> None)
          events
        |> List.sort_uniq compare
      in
      let flow_ids ph =
        List.filter_map
          (fun e ->
            if J.member "ph" e = J.Str ph then
              match J.member "id" e with J.Int i -> Some i | _ -> None
            else None)
          events
        |> List.sort_uniq compare
      in
      let outs = flow_ids "s" and ins = flow_ids "f" in
      let span_ids =
        List.filter_map
          (fun e ->
            if J.member "ph" e = J.Str "B" then
              match J.member "span_id" (J.member "args" e) with
              | J.Int i -> Some (pid_of e, i)
              | _ -> None
            else None)
          events
      in
      named_pids = List.init procs (fun i -> i + 1)
      (* Per-process span ids never collide after the merge. *)
      && List.length (List.sort_uniq compare span_ids)
         = List.length span_ids
      (* Each flow start resolves to a finish in the other process (and
         none dangle), whenever both endpoints exist. *)
      && (if procs >= 2 then outs = ins && List.length outs = flows
          else ins = []))

(* --- flight recorder -------------------------------------------------------- *)

module Flight = Ogc_obs.Flight

let flight_rec i =
  { Flight.f_id = Some (Printf.sprintf "r%d" i);
    f_trace = None;
    f_key = "";
    f_shard = "test";
    f_op = "analyze";
    f_queue_ms = 0.0;
    f_hedged = false;
    f_cache = "";
    f_outcome = "ok";
    f_ms = float_of_int i;
    f_ts = 0.0 }

let test_flight_ring_bounds () =
  Flight.reset ();
  Fun.protect ~finally:Flight.reset @@ fun () ->
  let n = Flight.capacity + 100 in
  for i = 0 to n - 1 do
    Flight.record (flight_rec i)
  done;
  let snap = Flight.snapshot () in
  Alcotest.(check int) "ring bounded" Flight.capacity (List.length snap);
  Alcotest.(check int) "total counts everything" n (Flight.total ());
  Alcotest.(check int) "dropped = overflow" 100 (Flight.dropped ());
  (* Oldest first, and exactly the newest [capacity] records retained. *)
  (match snap with
  | first :: _ ->
    Alcotest.(check (float 0.0)) "oldest retained" 100.0 first.Flight.f_ms
  | [] -> Alcotest.fail "empty snapshot");
  (match List.rev snap with
  | last :: _ ->
    Alcotest.(check (float 0.0)) "newest retained"
      (float_of_int (n - 1)) last.Flight.f_ms
  | [] -> Alcotest.fail "empty snapshot");
  Alcotest.(check bool) "ordering monotone" true
    (let ms = List.map (fun r -> r.Flight.f_ms) snap in
     List.for_all2 ( <= )
       (List.filteri (fun i _ -> i < List.length ms - 1) ms)
       (List.tl ms));
  match Flight.to_json_all () with
  | J.Obj _ as j ->
    Alcotest.(check bool) "payload totals" true
      (J.member "total" j = J.Int n && J.member "dropped" j = J.Int 100)
  | _ -> Alcotest.fail "bad flight payload"

let test_flight_slow_capture () =
  Flight.reset ();
  let lines = ref [] in
  Log.set_sink (fun l -> lines := l :: !lines);
  Fun.protect ~finally:(fun () ->
      Log.set_sink prerr_endline;
      Flight.reset ())
  @@ fun () ->
  Flight.set_slow_ms (Some 5.0);
  Flight.record (flight_rec 3);
  Alcotest.(check int) "fast request not captured" 0 (List.length !lines);
  Flight.record { (flight_rec 50) with f_trace = Some "t-slow" };
  match !lines with
  | [ line ] ->
    let j = J.of_string line in
    Alcotest.(check bool) "slow_request line" true
      (J.member "msg" j = J.Str "slow_request");
    Alcotest.(check bool) "carries trace id" true
      (J.member "trace_id" j = J.Str "t-slow");
    Alcotest.(check bool) "carries duration" true
      (J.member "ms" j = J.Float 50.0)
  | l -> Alcotest.failf "expected one capture, got %d" (List.length l)

(* --- structured logs ------------------------------------------------------- *)

let test_log_lines () =
  let lines = ref [] in
  Log.set_sink (fun l -> lines := l :: !lines);
  Fun.protect ~finally:(fun () ->
      Log.set_sink prerr_endline;
      Log.set_level Log.Info)
  @@ fun () ->
  Log.set_level Log.Info;
  Log.debug "dropped below threshold";
  Log.info "hello" ~fields:[ ("n", J.Int 3); ("who", J.Str "obs") ];
  Log.error "bad";
  Alcotest.(check int) "threshold drops debug" 2 (List.length !lines);
  List.iter
    (fun line ->
      let j = J.of_string line in
      (match J.member "ts" j with
      | J.Float _ | J.Int _ -> ()
      | _ -> Alcotest.fail "no ts");
      (match J.member "level" j with
      | J.Str ("info" | "error") -> ()
      | _ -> Alcotest.fail "bad level");
      match J.member "msg" j with
      | J.Str _ -> ()
      | _ -> Alcotest.fail "no msg")
    !lines;
  match List.rev !lines with
  | [ info; _ ] ->
    Alcotest.(check bool) "fields serialized" true
      (J.member "who" (J.of_string info) = J.Str "obs")
  | _ -> Alcotest.fail "expected two lines"

(* --- determinism: analyze is byte-identical with tracing on/off ------------ *)

let src =
  "long input_scale = 1;\n\
   int main() {\n\
  \  int n = 30 * (int)input_scale;\n\
  \  long s = 0;\n\
  \  for (int i = 0; i < n; i++) s += (i & 63) * 5;\n\
  \  emit(s);\n\
  \  return 0;\n\
   }\n"

let req pass =
  {
    Protocol.id = None;
    payload = Protocol.Source src;
    input = Ogc_workloads.Workload.Train;
    pass;
    policy = Ogc_gating.Policy.Software;
    cost = 50;
    deadline_ms = None;
    return_program = true;
    trace_id = None;
    parent_span = None;
  }

let test_analyze_identical_with_tracing () =
  List.iter
    (fun pass ->
      Metrics.reset ();
      Span.reset ();
      Metrics.set_enabled false;
      Span.set_enabled false;
      let off = J.to_string (Protocol.analyze (req pass)) in
      Metrics.set_enabled true;
      Span.set_enabled true;
      let on = J.to_string (Protocol.analyze (req pass)) in
      (* A live trace context changes what the spans record, never the
         payload. *)
      let ctx = J.to_string
          (Span.with_context (Some { Span.trace = "t-det"; parent = 9 })
             (fun () -> Protocol.analyze (req pass)))
      in
      Metrics.set_enabled false;
      Span.set_enabled false;
      let off2 = J.to_string (Protocol.analyze (req pass)) in
      Span.reset ();
      Alcotest.(check string)
        (Printf.sprintf "pass %s: on = off" (Protocol.pass_name pass))
        off on;
      Alcotest.(check string)
        (Printf.sprintf "pass %s: traced ctx = off" (Protocol.pass_name pass))
        off ctx;
      Alcotest.(check string)
        (Printf.sprintf "pass %s: off again = off" (Protocol.pass_name pass))
        off off2)
    [ Protocol.P_vrp; Protocol.P_vrs ]

(* --- one clock reading per extent ---------------------------------------- *)

module Pass = Ogc_pass.Pass
module Vrp = Ogc_core.Vrp
module Prog = Ogc_ir.Prog

(* The sum of one histogram series, read off a scrape. *)
let hist_sum name labels =
  match
    List.find_opt
      (fun (n, l, _) -> n = name && l = labels)
      (Metrics.snapshot ())
  with
  | Some (_, _, v) -> J.get_float "sum" v
  | None -> Alcotest.failf "no series %s" name

(* E.ts - B.ts, in µs, of the one span called [name] in [doc]. *)
let span_us doc name =
  let evs = match J.member "traceEvents" doc with J.Arr e -> e | _ -> [] in
  let ts ph =
    match
      List.filter
        (fun e -> J.member "name" e = J.Str name && J.member "ph" e = J.Str ph)
        evs
    with
    | [ e ] -> J.get_float "ts" e
    | l -> Alcotest.failf "%d %s events named %s" (List.length l) ph name
  in
  ts "E" -. ts "B"

(* A pass of a chain and [Vrp.run] are each timed once: the span's
   length is exactly the seconds the histogram observed for that run. *)
let test_one_reading_per_extent () =
  let example f =
    In_channel.with_open_bin ("../examples/" ^ f) In_channel.input_all
  in
  let programs =
    [ ("dotprod", Minic.compile (example "dotprod.mc"));
      ("register_pressure", Minic.compile (example "register_pressure.mc"));
      ("loop", Minic.compile src) ]
  in
  let passes = [ "cleanup"; "vrp"; "encode-widths" ] in
  let pass_sum n = hist_sum "ogc_pass_seconds" [ ("pass", n) ] in
  let vrp_sum () = hist_sum "ogc_vrp_pass_seconds" [] in
  Metrics.reset ();
  Metrics.set_enabled true;
  Span.set_enabled true;
  Fun.protect ~finally:(fun () ->
      Metrics.set_enabled false;
      Span.set_enabled false;
      Span.reset ())
  @@ fun () ->
  List.iter
    (fun (pname, p) ->
      let agree what span seconds =
        Alcotest.(check (float 0.01))
          (Printf.sprintf "%s: %s span = observation" pname what)
          (seconds *. 1e6) span
      in
      let before = List.map pass_sum passes in
      Span.reset ();
      ignore (Pass.run (String.concat "," passes) (Prog.copy p));
      let doc = Span.export () in
      List.iter2
        (fun n b ->
          let span = "pass:" ^ n in
          agree span (span_us doc span) (pass_sum n -. b))
        passes before;
      let b = vrp_sum () in
      Span.reset ();
      ignore (Vrp.run (Prog.copy p));
      agree "vrp" (span_us (Span.export ()) "vrp") (vrp_sum () -. b))
    programs

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [
      ("gating", [ Alcotest.test_case "disabled is no-op" `Quick
                     test_disabled_is_noop ]);
      ( "shards",
        List.map (fun j -> q (prop_merge_is_shard_sum j)) [ 1; 2; 8 ] );
      ( "exposition",
        [ Alcotest.test_case "format" `Quick test_exposition_format ] );
      ("trace", [ Alcotest.test_case "export" `Quick test_trace_export ]);
      ( "spans",
        [ Alcotest.test_case "ids and ambient context" `Quick
            test_span_ids_and_context;
          Alcotest.test_case "drop accounting" `Quick
            test_span_drop_accounting;
          Alcotest.test_case "compile layers" `Quick test_compile_layer_spans;
          Alcotest.test_case "one reading per extent" `Quick
            test_one_reading_per_extent;
          q prop_merged_fleet_well_formed ] );
      ( "flight",
        [ Alcotest.test_case "ring bounds and ordering" `Quick
            test_flight_ring_bounds;
          Alcotest.test_case "slow-request auto-capture" `Quick
            test_flight_slow_capture ] );
      ("log", [ Alcotest.test_case "ndjson lines" `Quick test_log_lines ]);
      ( "determinism",
        [ Alcotest.test_case "analyze byte-identical" `Quick
            test_analyze_identical_with_tracing ] );
    ]
