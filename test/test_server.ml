(* Optimization-service tests: cache determinism, deadline expiry,
   bounded-queue rejection, the graceful SIGINT drain and the
   request-line bound — all over a real Unix-domain socket — the one
   request front shared with the fleet router, plus Prog_json round-trip
   properties (the wire form of programs the service ships). *)

module J = Ogc_json.Json
module Server = Ogc_server.Server
module Front = Ogc_server.Front
module Router = Ogc_fleet.Router
module Flight = Ogc_obs.Flight
module Metrics = Ogc_obs.Metrics
module Net = Ogc_net.Net
module Cache = Ogc_server.Cache
module Prog_json = Ogc_ir.Prog_json
module Workload = Ogc_workloads.Workload
module Gen_minic = Ogc_fuzz.Gen_minic

(* Server lifecycle events are structured logs now; keep test output
   clean. *)
let () = Ogc_obs.Log.set_level Ogc_obs.Log.Error

let src =
  "long input_scale = 3;\n\
   int main() {\n\
  \  int n = 40 * (int)input_scale;\n\
  \  long s = 0;\n\
  \  for (int i = 0; i < n; i++) s += (i & 255) * 3;\n\
  \  emit(s);\n\
  \  return 0;\n\
   }\n"

let analyze_req ?(pass = "vrp") ?cost ?deadline_ms () =
  J.to_string ~indent:false
    (J.Obj
       ([ ("source", J.Str src); ("pass", J.Str pass) ]
        @ (match cost with None -> [] | Some c -> [ ("cost", J.Int c) ])
        @ match deadline_ms with
          | None -> []
          | Some ms -> [ ("deadline_ms", J.Int ms) ]))

(* Socket paths must stay short (sun_path is ~100 bytes). *)
let sock_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "/tmp/ogc-test-%d-%d.sock" (Unix.getpid ()) !n

let with_server ?(queue_limit = 64) ?(cache_capacity = 256) ?cache_dir
    ?inject_slow_ms f =
  let path = sock_path () in
  let cfg =
    { (Server.default_config (Net.Unix_sock path)) with
      jobs = Some 1;
      queue_limit;
      cache_capacity;
      cache_dir;
      inject_slow_ms }
  in
  let t = Server.create cfg in
  let th = Thread.create Server.run t in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Thread.join th;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f path t)

(* One connection, one request line, one response line. *)
let request path line =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  output_string oc line;
  output_char oc '\n';
  flush oc;
  let resp = input_line ic in
  Unix.close fd;
  resp

let field resp k =
  match J.member k (J.of_string resp) with
  | J.Str s -> s
  | J.Null -> Alcotest.failf "response lacks %S: %s" k resp
  | v -> J.to_string ~indent:false v

let result_bytes resp =
  J.to_string ~indent:false (J.member "result" (J.of_string resp))

(* Collects warn-and-above log lines for the duration of [f]. *)
let with_warn_lines f =
  let lines = ref [] and m = Mutex.create () in
  Ogc_obs.Log.set_level Ogc_obs.Log.Warn;
  Ogc_obs.Log.set_sink (fun l ->
      Mutex.protect m (fun () -> lines := l :: !lines));
  Fun.protect
    ~finally:(fun () ->
      Ogc_obs.Log.set_sink prerr_endline;
      Ogc_obs.Log.set_level Ogc_obs.Log.Error)
    (fun () -> f (fun () -> Mutex.protect m (fun () -> List.rev !lines)))

(* A metric's merged value: a counter's count, or a histogram's number
   of observations. *)
let metric_value name =
  List.fold_left
    (fun acc (n, labels, v) ->
      if n <> name || labels <> [] then acc
      else
        match v with
        | J.Float f -> acc +. f
        | J.Int i -> acc +. float_of_int i
        | j -> (
          match J.member "count" j with
          | J.Int i -> acc +. float_of_int i
          | J.Float f -> acc +. f
          | _ -> acc))
    0.0 (Metrics.snapshot ())

let with_metrics f =
  let were = Metrics.enabled () in
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled were) f

(* A fleet router in front of the in-process server at [path]. *)
let with_router path f =
  let rpath = sock_path () in
  let r =
    Router.create
      { Router.addr = Net.Unix_sock rpath;
        shards = [ { Router.t_name = "s0"; t_addr = Net.Unix_sock path } ] }
  in
  let th = Thread.create Router.run r in
  Fun.protect
    ~finally:(fun () ->
      Router.stop r;
      Thread.join th;
      if Sys.file_exists rpath then Sys.remove rpath)
    (fun () -> f r)

(* Each line gets byte-identical replies from the server's and the
   router's [handle_line] — the one front — and leaves exactly one
   flight record per front, with op ["invalid"], the reply's status as
   outcome and that front's name as shard.  No line reaches the profile
   store. *)
let check_fronts_agree lines =
  with_server (fun path t ->
      with_router path (fun r ->
          List.iter
            (fun line ->
              let via name handle =
                let before = Flight.total () in
                let reply = handle line in
                Alcotest.(check int)
                  (Printf.sprintf "%s: one flight record for %s" name line)
                  (before + 1) (Flight.total ());
                (match List.rev (Flight.snapshot ()) with
                | fr :: _ ->
                  Alcotest.(check (list string))
                    (Printf.sprintf "%s: op, outcome, shard of %s" name line)
                    [ "invalid"; field reply "status"; name ]
                    [ fr.Flight.f_op; fr.Flight.f_outcome; fr.Flight.f_shard ]
                | [] -> Alcotest.fail "no flight record");
                reply
              in
              let s = via "serve" (Server.handle_line t) in
              let rr = via "router" (Router.handle_line r) in
              Alcotest.(check string) ("same reply bytes for " ^ line) s rr)
            lines;
          Alcotest.(check int) "no profile pushed" 0
            (J.get_int "pushes" (J.member "profile" (Server.stats_json t)))))

(* --- cache ----------------------------------------------------------------- *)

let test_cache_hit_determinism () =
  with_server (fun path t ->
      let r1 = request path (analyze_req ()) in
      Alcotest.(check string) "first is ok" "ok" (field r1 "status");
      Alcotest.(check string) "first misses" "miss" (field r1 "cache");
      let r2 = request path (analyze_req ()) in
      Alcotest.(check string) "second is ok" "ok" (field r2 "status");
      Alcotest.(check string) "second hits" "hit" (field r2 "cache");
      Alcotest.(check string) "hit payload is byte-identical"
        (result_bytes r1) (result_bytes r2);
      (* A different option is a different content address. *)
      let r3 = request path (analyze_req ~pass:"none" ()) in
      Alcotest.(check string) "changed options miss" "miss" (field r3 "cache");
      let stats = Server.stats_json t in
      let cache = J.member "cache" stats in
      Alcotest.(check int) "hits" 1 (J.get_int "hits" cache);
      Alcotest.(check int) "misses" 2 (J.get_int "misses" cache))

let test_cache_version_in_envelope () =
  with_server (fun path _ ->
      let r = request path {|{"op":"ping"}|} in
      Alcotest.(check string) "status" "ok" (field r "status");
      Alcotest.(check string) "version" Ogc_server.Version.version
        (field r "version"))

let test_cache_disk_persistence () =
  let dir = Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ogc-cache-%d" (Unix.getpid ())) in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Unix.rmdir dir
      end)
    (fun () ->
      let first =
        with_server ~cache_dir:dir (fun path _ ->
            let r = request path (analyze_req ()) in
            Alcotest.(check string) "fresh server misses" "miss"
              (field r "cache");
            result_bytes r)
      in
      (* A second server sharing the directory rehydrates the entry it
         never computed. *)
      with_server ~cache_dir:dir (fun path t ->
          let r = request path (analyze_req ()) in
          Alcotest.(check string) "restarted server hits" "hit"
            (field r "cache");
          Alcotest.(check string) "disk payload is byte-identical" first
            (result_bytes r);
          let cache = J.member "cache" (Server.stats_json t) in
          Alcotest.(check int) "disk_hits" 1
            (J.get_int "disk_hits" cache)))

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 () in
  Cache.store c "a" "1";
  Cache.store c "b" "2";
  ignore (Cache.find c "a");  (* refresh a; b is now LRU *)
  Cache.store c "c" "3";
  Alcotest.(check (option string)) "a survives" (Some "1") (Cache.find c "a");
  Alcotest.(check (option string)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option string)) "c present" (Some "3") (Cache.find c "c");
  Alcotest.(check int) "one eviction" 1 (Cache.stats c).Cache.evictions

(* A cache_dir that is a regular file fails every disk write; the
   analysis is still answered, its repeat hits the memory tier, and the
   failure is one warn line, not an error reply. *)
let test_cache_unwritable_disk_tier () =
  let file = Filename.temp_file "ogc-cache" ".notadir" in
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  with_warn_lines @@ fun warned ->
  with_server ~cache_dir:file (fun _ t ->
      let r1 = Server.handle_line t (analyze_req ()) in
      Alcotest.(check (list string)) "first answered" [ "ok"; "miss" ]
        [ field r1 "status"; field r1 "cache" ];
      let r2 = Server.handle_line t (analyze_req ()) in
      Alcotest.(check (list string)) "repeat hits memory" [ "ok"; "hit" ]
        [ field r2 "status"; field r2 "cache" ];
      let stats = Server.stats_json t in
      Alcotest.(check int) "no error replies" 0 (J.get_int "errors" stats);
      Alcotest.(check int) "one analysis" 1 (J.get_int "analyses" stats));
  match warned () with
  | [ l ] ->
    let j = J.of_string l in
    Alcotest.(check string) "message" "ogc-cache: disk write failed"
      (J.get_string "msg" j);
    let path = J.get_string "path" j in
    Alcotest.(check string) "names the path under cache_dir" file
      (String.sub path 0 (min (String.length path) (String.length file)))
  | ls -> Alcotest.failf "want one warn line, got %d" (List.length ls)

(* An entry path that cannot be read (here a directory) is a miss,
   counted and logged; storing under it keeps the memory entry. *)
let test_cache_unreadable_entry () =
  let dir = Filename.temp_dir "ogc-cache" "" in
  let entry = Filename.concat dir "k.json" in
  Unix.mkdir entry 0o755;
  Fun.protect
    ~finally:(fun () ->
      Unix.rmdir entry;
      Unix.rmdir dir)
  @@ fun () ->
  with_metrics @@ fun () ->
  with_warn_lines @@ fun warned ->
  let c = Cache.create ~dir () in
  let before = metric_value "ogc_cache_disk_errors_total" in
  Alcotest.(check (option string)) "unreadable entry misses" None
    (Cache.find c "k");
  Alcotest.(check (float 0.0)) "disk error counted" (before +. 1.0)
    (metric_value "ogc_cache_disk_errors_total");
  Cache.store c "k" "v";
  Alcotest.(check (option string)) "memory entry kept" (Some "v")
    (Cache.find c "k");
  Alcotest.(check (list string)) "one warn line"
    [ "ogc-cache: disk read failed" ]
    (List.map (fun l -> J.get_string "msg" (J.of_string l)) (warned ()))

(* A write that fails only when the channel is flushed (a full disk:
   here the temporary file is a link to /dev/full) is a failed write,
   not a published empty entry, and leaves no temporary file behind. *)
let test_cache_full_disk_write () =
  let dir = Filename.temp_dir "ogc-cache" "" in
  let entry = Filename.concat dir "k.json" in
  let tmp = entry ^ ".tmp" in
  Unix.symlink "/dev/full" tmp;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ tmp; entry ];
      Unix.rmdir dir)
  @@ fun () ->
  with_warn_lines @@ fun warned ->
  let c = Cache.create ~dir () in
  Cache.store c "k" "v";
  Alcotest.(check (list string)) "one warn line"
    [ "ogc-cache: disk write failed" ]
    (List.map (fun l -> J.get_string "msg" (J.of_string l)) (warned ()));
  Alcotest.(check bool) "no entry published" false (Sys.file_exists entry);
  Alcotest.(check bool) "no temporary file left" false
    (Sys.file_exists tmp);
  Alcotest.(check (option string)) "memory entry kept" (Some "v")
    (Cache.find c "k")

(* Whatever a routed handler raises becomes one error reply, counted
   and flight-recorded. *)
let test_front_handler_exception () =
  let front = Front.create ~name:"test" in
  let before = Flight.total () in
  let reply =
    Front.handle_line front
      ~stats:(fun () -> J.Null)
      ~trace:(fun () -> J.Null)
      (fun _ -> failwith "boom")
      {|{"id":"e1","source":"x"}|}
  in
  Alcotest.(check string) "one error reply"
    (Front.envelope ~id:"e1" ~status:"error" [ ("error", J.Str "boom") ])
    reply;
  Alcotest.(check int) "counted" 1 (Front.errors front);
  Alcotest.(check int) "one flight record" (before + 1) (Flight.total ());
  match List.rev (Flight.snapshot ()) with
  | fr :: _ ->
    Alcotest.(check (list string)) "op, outcome, shard"
      [ "analyze"; "error"; "test" ]
      [ fr.Flight.f_op; fr.Flight.f_outcome; fr.Flight.f_shard ]
  | [] -> Alcotest.fail "no flight record"

(* At the default capacity and at one entry: the pass store holds a whole
   chain however small [cache_capacity] is. *)
let test_per_pass_artifact_reuse () =
  List.iter
    (fun cache_capacity ->
      with_server ~cache_capacity (fun path t ->
          let r1 = request path (analyze_req ~pass:"vrs" ~cost:50 ()) in
          Alcotest.(check string) "first ok" "ok" (field r1 "status");
          Alcotest.(check string) "first misses result cache" "miss"
            (field r1 "cache");
          (* Changing only the VRS cost is a different result address, but
             the guard-cost-independent chain prefix — VRP fixpoint, bb
             profile, value profiles — is served from the pass store. *)
          let r2 = request path (analyze_req ~pass:"vrs" ~cost:70 ()) in
          Alcotest.(check string) "second ok" "ok" (field r2 "status");
          Alcotest.(check string) "cost change misses result cache" "miss"
            (field r2 "cache");
          let by_pass =
            J.member "by_pass" (J.member "passes" (Server.stats_json t))
          in
          let hits p = J.get_int "hits" (J.member p by_pass) in
          List.iter
            (fun p ->
              Alcotest.(check int)
                (Printf.sprintf "%s artifact reused at capacity %d" p
                   cache_capacity)
                1 (hits p))
            [ "vrp"; "encode-widths"; "bb-profile"; "value-profile" ];
          Alcotest.(check int) "vrs artifact is cost-specific" 0 (hits "vrs");
          (* A warm store must not change a single byte of the payload:
             recompute the same request cold, with no store at all. *)
          let req =
            match
              Ogc_server.Protocol.op_of_json
                (J.of_string (analyze_req ~pass:"vrs" ~cost:70 ()))
            with
            | Ogc_server.Protocol.Analyze r -> r
            | _ -> Alcotest.fail "not an analyze op"
          in
          let cold =
            J.to_string ~indent:false (Ogc_server.Protocol.analyze req)
          in
          Alcotest.(check string) "warm store = cold run" cold
            (result_bytes r2)))
    [ 256; 1 ]

(* --- scheduler ------------------------------------------------------------- *)

let test_deadline_expiry () =
  with_server (fun path t ->
      (* An already-expired deadline must not run the analysis at all. *)
      let r = request path (analyze_req ~deadline_ms:0 ()) in
      Alcotest.(check string) "status" "deadline_exceeded" (field r "status");
      let stats = Server.stats_json t in
      Alcotest.(check int) "expired counted" 1
        (J.get_int "expired" stats);
      Alcotest.(check int) "nothing analyzed" 0
        (J.get_int "analyses" stats);
      (* A generous deadline runs normally. *)
      let r = request path (analyze_req ~deadline_ms:60_000 ()) in
      Alcotest.(check string) "status" "ok" (field r "status"))

let test_bounded_queue_rejection () =
  with_server ~queue_limit:0 (fun path t ->
      (* ping and stats are not admission-gated... *)
      Alcotest.(check string) "ping ok" "ok"
        (field (request path {|{"op":"ping"}|}) "status");
      (* ...but with a zero-length queue every analysis is shed. *)
      let r = request path (analyze_req ()) in
      Alcotest.(check string) "overloaded" "overloaded" (field r "status");
      Alcotest.(check int) "rejected counted" 1
        (J.get_int "rejected" (Server.stats_json t)))

(* Pool metrics count tasks a pool worker runs, not a map's sequential
   fallback (which the analysis itself runs three times per VRP). *)
let test_pool_metrics_count_pool_jobs () =
  with_metrics @@ fun () ->
  let jobs () = metric_value "ogc_pool_jobs_total" in
  let runs () = metric_value "ogc_pool_job_run_seconds" in
  let j0 = jobs () and r0 = runs () in
  ignore (Ogc_exec.Pool.map ~jobs:1 succ [ 1; 2; 3 ]);
  Alcotest.(check (pair (float 0.0) (float 0.0)))
    "sequential map records nothing" (j0, r0) (jobs (), runs ());
  with_server (fun _ t ->
      Alcotest.(check string) "analyze ok" "ok"
        (field (Server.handle_line t (analyze_req ())) "status"));
  Alcotest.(check (pair (float 0.0) (float 0.0)))
    "one analyze is one pool job" (j0 +. 1.0, r0 +. 1.0) (jobs (), runs ())

let test_malformed_requests () =
  with_server (fun path _ ->
      Alcotest.(check string) "bad json" "error"
        (field (request path "{nope") "status");
      Alcotest.(check string) "no payload" "error"
        (field (request path "{}") "status");
      Alcotest.(check string) "two payloads" "error"
        (field
           (request path {|{"source":"int main(){return 0;}","workload":"compress"}|})
           "status");
      Alcotest.(check string) "bad minic" "error"
        (field (request path {|{"source":"int main( {"}|}) "status");
      (* id is echoed even on errors *)
      let r = request path {|{"id":"req-7","pass":"bogus","source":"x"}|} in
      Alcotest.(check string) "id echoed" "req-7" (field r "id"));
  check_fronts_agree
    [ "{nope";
      "{}";
      {|{"source":"int main(){return 0;}","workload":"compress"}|};
      {|{"op":7}|};
      {|{"id":"x","op":"fetch","key":"00000000000000000000000000000000"}|};
      {|{"id":"req-7","pass":"bogus","source":"x"}|};
      {|{"source":"x","cost":"high"}|};
      {|{"source":"x","deadline_ms":1.5}|};
      {|{"op":"put","key":"nothex"}|};
      {|{"op":"profile","source":"x"}|};
      {|{"op":"profile","source":"x","profile":{"bb":7}}|};
      {|{"op":"profile","source":"x","profile":7}|};
      {|{"op":"profile","source":"x","profile":[1,2]}|} ]

(* --- flight records --------------------------------------------------------- *)

(* A flight record's [f_ts] is the wall time the request completed: an
   analyze slowed by 50 ms lands at least that long after a reading
   taken before the call. *)
let test_flight_ts_at_completion () =
  with_server ~inject_slow_ms:50.0 (fun _ t ->
      let before = Unix.gettimeofday () in
      let resp = Server.handle_line t (analyze_req ()) in
      Alcotest.(check string) "status" "ok" (field resp "status");
      match List.rev (Ogc_obs.Flight.snapshot ()) with
      | r :: _ ->
        Alcotest.(check string) "the analyze's record" "analyze"
          r.Ogc_obs.Flight.f_op;
        let after_s = r.Ogc_obs.Flight.f_ts -. before in
        if after_s < 0.05 then
          Alcotest.failf "f_ts is %.4f s after the call began, want >= 0.05"
            after_s
      | [] -> Alcotest.fail "no flight record")

(* --- protocol handshake ----------------------------------------------------- *)

let test_protocol_version () =
  with_server (fun path _ ->
      (* The current version and the legacy no-handshake form both pass. *)
      let ok =
        Printf.sprintf {|{"proto":%d,"op":"ping"}|}
          Ogc_server.Protocol.proto_version
      in
      Alcotest.(check string) "current proto ok" "ok"
        (field (request path ok) "status");
      Alcotest.(check string) "absent proto ok (legacy client)" "ok"
        (field (request path {|{"op":"ping"}|}) "status");
      (* A mismatch is a structured rejection, not undefined behavior —
         and the id still echoes so the client can match it up. *)
      let r = request path {|{"proto":999,"id":"v9","op":"ping"}|} in
      Alcotest.(check string) "mismatch rejected" "unsupported_protocol"
        (field r "status");
      Alcotest.(check string) "expected version reported"
        (string_of_int Ogc_server.Protocol.proto_version)
        (field r "expected");
      Alcotest.(check string) "client version echoed" "999" (field r "got");
      Alcotest.(check string) "id echoed" "v9" (field r "id");
      (* A non-integer proto is a plain parse error. *)
      Alcotest.(check string) "garbage proto" "error"
        (field (request path {|{"proto":"x","op":"ping"}|}) "status"));
  check_fronts_agree
    [ {|{"proto":99,"op":"ping"}|};
      {|{"proto":999,"id":"v9","op":"ping"}|};
      {|{"proto":99,"source":"x"}|};
      {|{"proto":"x","op":"ping"}|} ]

(* --- shard namespacing ------------------------------------------------------ *)

(* A VRS analysis compiles its source once: the baseline is a rescaled
   copy of the training compile.  [src] reads its [input_scale] global,
   so at ["input":"ref"] the answer must still be the ref-scaled run. *)
let test_vrs_compiles_once () =
  let module Span = Ogc_obs.Span in
  let req =
    match
      Ogc_server.Protocol.op_of_json
        (J.Obj
           [ ("source", J.Str src); ("pass", J.Str "vrs");
             ("input", J.Str "ref") ])
    with
    | Ogc_server.Protocol.Analyze r -> r
    | _ -> Alcotest.fail "not an analyze op"
  in
  Span.reset ();
  Span.set_enabled true;
  let result =
    Fun.protect
      ~finally:(fun () -> Span.set_enabled false)
      (fun () -> Ogc_server.Protocol.analyze req)
  in
  let lowers =
    match J.member "traceEvents" (Span.export ()) with
    | J.Arr evs ->
      List.length
        (List.filter
           (fun e ->
             J.member "name" e = J.Str "minic:lower"
             && J.member "ph" e = J.Str "B")
           evs)
    | _ -> Alcotest.fail "no traceEvents"
  in
  Span.reset ();
  Alcotest.(check int) "one minic:lower span" 1 lowers;
  let p = Ogc_minic.Minic.compile src in
  Workload.set_scale p Workload.Ref;
  Alcotest.(check string) "ref-scaled checksum"
    (Int64.to_string (Ogc_ir.Interp.run p).Ogc_ir.Interp.checksum)
    (J.get_string "checksum" result)

let test_shard_cache_namespacing () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ogc-shardns-%d" (Unix.getpid ()))
  in
  let rm_rf d =
    if Sys.file_exists d then begin
      Array.iter
        (fun f ->
          let p = Filename.concat d f in
          if Sys.is_directory p then begin
            Array.iter (fun g -> Sys.remove (Filename.concat p g))
              (Sys.readdir p);
            Unix.rmdir p
          end
          else Sys.remove p)
        (Sys.readdir d);
      Unix.rmdir d
    end
  in
  Fun.protect ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let with_shard id f =
        let path = sock_path () in
        let cfg =
          { (Server.default_config (Net.Unix_sock path)) with
            jobs = Some 1;
            cache_dir = Some dir;
            shard_id = Some id }
        in
        let t = Server.create cfg in
        let th = Thread.create Server.run t in
        Fun.protect
          ~finally:(fun () ->
            Server.stop t;
            Thread.join th;
            if Sys.file_exists path then Sys.remove path)
          (fun () -> f path t)
      in
      (* Two co-located shards share [dir] but write disjoint subtrees,
         so one shard's entries are invisible to the other. *)
      with_shard "a" (fun path t ->
          Alcotest.(check string) "shard a computes" "miss"
            (field (request path (analyze_req ())) "cache");
          Alcotest.(check string) "shard id in stats" "a"
            (field
               (J.to_string ~indent:false (Server.stats_json t))
               "shard_id"));
      Alcotest.(check bool) "shard-a subdir exists" true
        (Sys.file_exists (Filename.concat dir "shard-a"));
      with_shard "b" (fun path _ ->
          Alcotest.(check string) "shard b does not see a's entry" "miss"
            (field (request path (analyze_req ())) "cache"));
      with_shard "a" (fun path _ ->
          Alcotest.(check string) "restarted shard a rehydrates" "hit"
            (field (request path (analyze_req ())) "cache")))

(* [line] with every non-ASCII character written as a [\u] escape (a
   surrogate pair above U+FFFF), as Python's json.dumps writes it by
   default.  Non-ASCII bytes only occur inside JSON strings, so the
   result is the same JSON value. *)
let ascii_escaped line =
  let b = Buffer.create (String.length line) in
  let rec go i =
    if i < String.length line then begin
      let d = String.get_utf_8_uchar line i in
      let u = Uchar.to_int (Uchar.utf_decode_uchar d) in
      if u < 0x80 then Buffer.add_char b line.[i]
      else if u < 0x10000 then Buffer.add_string b (Printf.sprintf "\\u%04x" u)
      else begin
        let v = u - 0x10000 in
        Buffer.add_string b
          (Printf.sprintf "\\u%04x\\u%04x" (0xD800 lor (v lsr 10))
             (0xDC00 lor (v land 0x3FF)))
      end;
      go (i + Uchar.utf_decode_length d)
    end
  in
  go 0;
  Buffer.contents b

(* dotprod.mc has an em dash in a comment.  Sent with it escaped,
   through the server's front and through the router's, the request is
   the raw UTF-8 request: the same reply bytes, answered as a hit. *)
let test_escaped_source_is_the_raw_request () =
  let source =
    In_channel.with_open_bin "../examples/dotprod.mc" In_channel.input_all
  in
  let raw =
    J.to_string ~indent:false
      (J.Obj
         [ ("id", J.Str "dotprod"); ("source", J.Str source);
           ("pass", J.Str "vrs") ])
  in
  let escaped = ascii_escaped raw in
  Alcotest.(check bool) "the escaped line differs" false
    (String.equal raw escaped);
  with_server (fun path t ->
      with_router path (fun r ->
          Alcotest.(check string) "raw request computed" "miss"
            (field (Server.handle_line t raw) "cache");
          let hit = Server.handle_line t raw in
          Alcotest.(check string) "raw request again" "hit" (field hit "cache");
          List.iter
            (fun (name, handle) ->
              Alcotest.(check string) (name ^ ": escaped = raw") hit
                (handle escaped))
            [ ("serve", Server.handle_line t);
              ("router", Router.handle_line r) ]))

(* --- profile op / online specialization ------------------------------------ *)

module Profile = Ogc_pass.Profile
module Prog = Ogc_ir.Prog

(* A genuine training-run wire profile for [s], at train scale. *)
let wire_profile_json s =
  let p = Ogc_minic.Minic.compile s in
  if Prog.find_global p "input_scale" <> None then
    Workload.set_scale p Workload.Train;
  Profile.to_json (Profile.collect p)

let profile_req ?(source = src) ?(profile = wire_profile_json source) () =
  J.to_string ~indent:false
    (J.Obj
       [ ("op", J.Str "profile"); ("source", J.Str source);
         ("profile", profile) ])

let test_profile_roundtrip () =
  with_server (fun path t ->
      let r1 = request path (profile_req ()) in
      Alcotest.(check string) "push ok" "ok" (field r1 "status");
      Alcotest.(check string) "op echoed" "profile" (field r1 "op");
      Alcotest.(check string) "first push is epoch 1" "1" (field r1 "epoch");
      let r2 = request path (profile_req ()) in
      Alcotest.(check string) "second push bumps" "2" (field r2 "epoch");
      let prof = J.member "profile" (Server.stats_json t) in
      Alcotest.(check int) "one program profiled" 1
        (J.get_int "programs" prof);
      Alcotest.(check int) "two pushes" 2 (J.get_int "pushes" prof))

let test_profile_epoch_concurrent () =
  with_server (fun path _ ->
      let n = 8 in
      let line = profile_req () in
      let results = Array.make n "" in
      let ths =
        List.init n
          (Thread.create (fun i -> results.(i) <- request path line))
      in
      List.iter Thread.join ths;
      let epochs =
        Array.to_list results
        |> List.map (fun r -> int_of_string (field r "epoch"))
        |> List.sort compare
      in
      (* Every concurrent push observes a distinct, gapless epoch. *)
      Alcotest.(check (list int)) "epochs are a permutation of 1..n"
        (List.init n (fun i -> i + 1))
        epochs)

let test_stale_while_revalidate () =
  with_server (fun path t ->
      let vrs_req () = analyze_req ~pass:"vrs" ~cost:50 () in
      let r1 = request path (vrs_req ()) in
      Alcotest.(check string) "epoch-0 artifact computed" "miss"
        (field r1 "cache");
      Alcotest.(check string) "push ok" "1"
        (field (request path (profile_req ())) "epoch");
      (* The next request is answered immediately from the epoch-0
         artifact while re-specialization runs in the background. *)
      let r2 = request path (vrs_req ()) in
      Alcotest.(check string) "stale served" "stale" (field r2 "cache");
      Alcotest.(check string) "served epoch reported" "0"
        (field r2 "served_epoch");
      Alcotest.(check string) "current epoch reported" "1"
        (field r2 "profile_epoch");
      Alcotest.(check string) "stale payload is the epoch-0 artifact"
        (result_bytes r1) (result_bytes r2);
      (* A stale answer is counted as [stale_served], never as a
         result-cache hit: [cache.hits] counts the "hit" answers only. *)
      let cache_hits () =
        J.get_int "hits" (J.member "cache" (Server.stats_json t))
      in
      Alcotest.(check int) "stale answer is not a cache hit" 0 (cache_hits ());
      (* The background re-specialization lands: polling converges to a
         fresh-epoch cache hit. *)
      let deadline = Unix.gettimeofday () +. 30.0 in
      let rec converge () =
        let r = request path (vrs_req ()) in
        match field r "cache" with
        | "hit" -> ()
        | _ when Unix.gettimeofday () > deadline ->
          Alcotest.fail "respecialization never landed"
        | _ ->
          Thread.delay 0.05;
          converge ()
      in
      converge ();
      Alcotest.(check int) "one hit answer, one cache hit" 1 (cache_hits ());
      let prof = J.member "profile" (Server.stats_json t) in
      Alcotest.(check bool) "stale answers counted" true
        (J.get_int "stale_served" prof >= 1);
      Alcotest.(check int) "exactly one respecialization" 1
        (J.get_int "respecializations" prof))

let test_legacy_unaffected_by_profiles () =
  with_server (fun path _ ->
      (* A profile accumulated for some other program must not perturb a
         legacy (never-pushing) client by a single byte. *)
      let other = "int main() { emit(7); return 0; }" in
      Alcotest.(check string) "other program's push ok" "1"
        (field (request path (profile_req ~source:other ())) "epoch");
      let r1 = request path (analyze_req ~pass:"vrs" ~cost:50 ()) in
      Alcotest.(check string) "legacy first misses" "miss" (field r1 "cache");
      Alcotest.(check bool) "no epoch fields on legacy responses" true
        (J.member "profile_epoch" (J.of_string r1) = J.Null);
      let r2 = request path (analyze_req ~pass:"vrs" ~cost:50 ()) in
      Alcotest.(check string) "legacy rerun hits, never stale" "hit"
        (field r2 "cache");
      let req =
        match
          Ogc_server.Protocol.op_of_json
            (J.of_string (analyze_req ~pass:"vrs" ~cost:50 ()))
        with
        | Ogc_server.Protocol.Analyze r -> r
        | _ -> Alcotest.fail "not an analyze op"
      in
      let cold =
        J.to_string ~indent:false (Ogc_server.Protocol.analyze req)
      in
      Alcotest.(check string) "profile-less path = storeless cold run" cold
        (result_bytes r2))

(* The route key a profile push for [source] is stored under. *)
let route_key_of_push source =
  match
    Ogc_server.Protocol.op_of_json (J.of_string (profile_req ~source ()))
  with
  | Ogc_server.Protocol.Profile (req, _) -> Ogc_server.Protocol.route_key req
  | _ -> Alcotest.fail "not a profile op"

(* The profile store evicts the least recently used program: with room
   for two, pushes of A, B, A, C drop B, not A, so A's next push answers
   epoch 3.  The eviction is counted, and logged once with B's route key
   and the epoch it dropped. *)
let test_profile_store_keeps_pushed_program () =
  let a = src
  and b = "int main() { emit(11); return 0; }"
  and c = "int main() { emit(22); return 0; }" in
  with_warn_lines @@ fun warned ->
  with_server ~cache_capacity:2 (fun path t ->
      let push source =
        int_of_string (field (request path (profile_req ~source ())) "epoch")
      in
      let e1 = push a in
      let e2 = push b in
      let e3 = push a in
      let e4 = push c in
      Alcotest.(check (list int))
        "A, B, A, C" [ 1; 1; 2; 1 ] [ e1; e2; e3; e4 ];
      Alcotest.(check int) "A kept its profile" 3 (push a);
      let prof = J.member "profile" (Server.stats_json t) in
      Alcotest.(check int) "two programs held" 2 (J.get_int "programs" prof);
      Alcotest.(check int) "one eviction" 1 (J.get_int "evictions" prof);
      match
        List.filter
          (fun l ->
            J.member "msg" (J.of_string l) = J.Str "ogc-serve: profile evicted")
          (warned ())
      with
      | [ l ] ->
        let j = J.of_string l in
        Alcotest.(check string) "B's route key" (route_key_of_push b)
          (J.get_string "route_key" j);
        Alcotest.(check int) "B's dropped epoch" 1 (J.get_int "epoch" j)
      | ls -> Alcotest.failf "%d profile-eviction lines" (List.length ls))

(* A push merges into a copy and publishes it, and nothing writes to a
   published profile: two finds with no push between them return the
   same value, and a value found before a push keeps its epoch and
   counts after it. *)
let test_profile_store_publishes_copies () =
  let module Store = Ogc_server.Profile_store in
  let store = Store.create () in
  let delta = Profile.collect (Ogc_minic.Minic.compile src) in
  let find () =
    match Store.find store "k" with
    | Some p -> p
    | None -> Alcotest.fail "program not found"
  in
  let bytes p = J.to_string ~indent:false (Profile.to_json p) in
  Alcotest.(check int) "first push" 1 (Store.push store "k" delta);
  let found = find () in
  Alcotest.(check bool) "two finds share one value" true (found == find ());
  let before = bytes found in
  Alcotest.(check int) "second push" 2 (Store.push store "k" delta);
  Alcotest.(check int) "found value keeps its epoch" 1 (Profile.epoch found);
  Alcotest.(check string) "found value keeps its counts" before (bytes found);
  let now = find () in
  Alcotest.(check int) "published epoch" 2 (Profile.epoch now);
  Alcotest.(check int) "published counts accumulate"
    (2 * delta.Profile.p_total) now.Profile.p_total

(* The stale-answer index holds 4 x cache_capacity request shapes and
   evicts the least recently noted one.  With capacity 2 (8 shapes),
   eight shapes, then A, then one more: the ninth and tenth shapes evict
   the two oldest, A stays, and after a push A is answered stale from
   its epoch-0 artifact (still in the 2-entry result cache). *)
let test_stale_index_keeps_recent_shape () =
  let vrs_line source =
    J.to_string ~indent:false
      (J.Obj [ ("source", J.Str source); ("pass", J.Str "vrs") ])
  in
  let other i =
    vrs_line (Printf.sprintf "int main() { emit(%d); return 0; }" i)
  in
  let a = analyze_req ~pass:"vrs" ~cost:50 () in
  with_server ~cache_capacity:2 (fun path t ->
      let miss line =
        Alcotest.(check string)
          "computed" "miss" (field (request path line) "cache")
      in
      for i = 1 to 8 do
        miss (other i)
      done;
      miss a;
      miss (other 9);
      Alcotest.(check string) "push ok" "1"
        (field (request path (profile_req ())) "epoch");
      let r = request path a in
      Alcotest.(check string) "A answered stale" "stale" (field r "cache");
      Alcotest.(check string) "from epoch 0" "0" (field r "served_epoch");
      let index =
        J.member "stale_index" (J.member "profile" (Server.stats_json t))
      in
      Alcotest.(check int) "bounded" 8 (J.get_int "entries" index);
      Alcotest.(check int) "two evictions" 2 (J.get_int "evictions" index))

(* A re-specialization the queue cannot admit is dropped, counted in
   [profile.respecializations_dropped] and logged at warn with the route
   key, the epoch and the queue limit; the next stale request tries
   again.  A zero-length queue computes nothing, so the epoch-0 answer is
   put into the cache by hand, and a hit on it records it in the stale
   index. *)
let test_dropped_respec_counted () =
  let line = analyze_req ~pass:"vrs" ~cost:50 () in
  let req =
    match Ogc_server.Protocol.op_of_json (J.of_string line) with
    | Ogc_server.Protocol.Analyze r -> r
    | _ -> Alcotest.fail "not an analyze op"
  in
  let put =
    J.to_string ~indent:false
      (J.Obj
         [ ("op", J.Str "put");
           ("key", J.Str (Ogc_server.Protocol.cache_key req));
           ("result", J.Obj [ ("answer", J.Int 0) ]) ])
  in
  let empty_push =
    profile_req ~profile:(Profile.to_json (Profile.create ())) ()
  in
  with_warn_lines @@ fun warned ->
  with_server ~queue_limit:0 (fun path t ->
      let profile k = J.get_int k (J.member "profile" (Server.stats_json t)) in
      let dropped () = profile "respecializations_dropped" in
      Alcotest.(check string) "put ok" "ok"
        (field (request path put) "status");
      Alcotest.(check string) "epoch-0 answer is a hit" "hit"
        (field (request path line) "cache");
      Alcotest.(check string) "empty push moves to epoch 1" "1"
        (field (request path empty_push) "epoch");
      Alcotest.(check string) "answered stale" "stale"
        (field (request path line) "cache");
      Alcotest.(check int) "one drop counted" 1 (dropped ());
      (match
         List.filter
           (fun l ->
             J.member "msg" (J.of_string l)
             = J.Str "ogc-serve: respecialization dropped")
           (warned ())
       with
      | [ l ] ->
        let j = J.of_string l in
        Alcotest.(check string) "route key" (Ogc_server.Protocol.route_key req)
          (J.get_string "route_key" j);
        Alcotest.(check int) "epoch" 1 (J.get_int "epoch" j);
        Alcotest.(check int) "queue limit" 0 (J.get_int "queue_limit" j)
      | ls ->
        Alcotest.failf "%d respecialization-dropped lines" (List.length ls));
      Alcotest.(check string) "answered stale again" "stale"
        (field (request path line) "cache");
      Alcotest.(check int) "second drop counted" 2 (dropped ());
      Alcotest.(check int) "nothing respecialized" 0
        (profile "respecializations"))

(* --- drain ----------------------------------------------------------------- *)

let test_stop_drains () =
  let path = sock_path () in
  let t =
    Server.create
      { (Server.default_config (Net.Unix_sock path)) with jobs = Some 1 }
  in
  let th = Thread.create Server.run t in
  Alcotest.(check string) "server answers" "ok"
    (field (request path (analyze_req ())) "status");
  Server.stop t;
  Thread.join th;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path);
  (* a second stop is a harmless no-op *)
  Server.stop t

let test_sigint_drains () =
  let path = sock_path () in
  let t =
    Server.create
      { (Server.default_config (Net.Unix_sock path)) with jobs = Some 1 }
  in
  let th = Thread.create Server.run t in
  let prev = Sys.signal Sys.sigint Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigint prev)
    (fun () ->
      Server.install_sigint t;
      Alcotest.(check string) "server answers" "ok"
        (field (request path {|{"op":"ping"}|}) "status");
      Unix.kill (Unix.getpid ()) Sys.sigint;
      (* Keep the main thread executing OCaml so the pending signal
         action (which calls stop) runs promptly. *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      while Sys.file_exists path && Unix.gettimeofday () < deadline do
        Thread.yield ()
      done;
      Thread.join th;
      Alcotest.(check bool) "socket unlinked after SIGINT" false
        (Sys.file_exists path))

(* --- connection errors ---------------------------------------------------- *)

(* A client that hangs up before its (deliberately slowed) analyze is
   answered makes the reply write fail; the server must say so at warn
   level instead of dropping the connection silently. *)
let test_dropped_connection_logged () =
  with_warn_lines @@ fun warned ->
  let path = sock_path () in
  let t =
    Server.create
      { (Server.default_config (Net.Unix_sock path)) with
        jobs = Some 1;
        inject_slow_ms = Some 200.0 }
  in
  let th = Thread.create Server.run t in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Thread.join th)
  @@ fun () ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let line = analyze_req () ^ "\n" in
  ignore (Unix.write_substring fd line 0 (String.length line));
  Unix.close fd;
  let dropped () =
    List.find_opt
      (fun l ->
        J.member "msg" (J.of_string l) = J.Str "ogc-serve: connection dropped")
      (warned ())
  in
  let deadline = Unix.gettimeofday () +. 10.0 in
  while dropped () = None && Unix.gettimeofday () < deadline do
    Thread.delay 0.02
  done;
  match dropped () with
  | None -> Alcotest.fail "no warn line for the dropped connection"
  | Some l ->
    let j = J.of_string l in
    Alcotest.(check string) "level" "warn" (J.get_string "level" j);
    Alcotest.(check string) "listener address" path (J.get_string "addr" j);
    Alcotest.(check string) "names the failed write"
      (Printexc.to_string (Sys_error "Broken pipe"))
      (J.get_string "error" j)

(* A few hundred sequential connections, one open at a time: the
   listener keeps nothing per connection once it has closed, so the
   descriptor count returns to where it started and the drain is
   prompt. *)
let test_sequential_connections_leave_nothing () =
  let fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let path = sock_path () in
  let t =
    Server.create
      { (Server.default_config (Net.Unix_sock path)) with jobs = Some 1 }
  in
  let th = Thread.create Server.run t in
  (* a failed check still stops the server, without waiting on it *)
  Fun.protect ~finally:(fun () -> Server.stop t) @@ fun () ->
  let before = fds () in
  for _ = 1 to 300 do
    if field (request path {|{"op":"ping"}|}) "status" <> "ok" then
      Alcotest.fail "ping failed"
  done;
  (* Each connection thread closes its descriptor after the client's
     EOF, asynchronously. *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  while fds () > before && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Alcotest.(check int) "descriptor count back to the start" before (fds ());
  let stopped = Atomic.make false in
  ignore
    (Thread.create
       (fun () ->
         Server.stop t;
         Thread.join th;
         Atomic.set stopped true)
       ());
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Atomic.get stopped)) && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  Alcotest.(check bool) "stop + run return within 5 s" true
    (Atomic.get stopped)

(* --- request-line bound --------------------------------------------------- *)

(* Sends [max_line_bytes + 1] bytes with no newline; returns the reply
   line and whether the peer closed the connection after it. *)
let oversized_exchange path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  (* a server that waits for the newline fails the test, not hangs it *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  let big = String.make (Net.max_line_bytes + 1) 'x' in
  ignore (Unix.write_substring fd big 0 (String.length big));
  let ic = Unix.in_channel_of_descr fd in
  let reply = input_line ic in
  (reply, match input_line ic with _ -> false | exception End_of_file -> true)

let test_oversized_line () =
  with_warn_lines @@ fun warned ->
  with_server (fun path _ ->
      let reply, eof = oversized_exchange path in
      Alcotest.(check string) "status" "error" (field reply "status");
      Alcotest.(check string) "names the limit"
        (string_of_int Net.max_line_bytes)
        (field reply "max_line_bytes");
      Alcotest.(check bool) "connection closed after the reply" true eof;
      Alcotest.(check string) "a fresh connection is served" "ok"
        (field (request path {|{"op":"ping"}|}) "status");
      match
        List.find_opt
          (fun l ->
            J.member "msg" (J.of_string l)
            = J.Str "ogc-serve: request line too long")
          (warned ())
      with
      | None -> Alcotest.fail "no warn line for the oversized request"
      | Some l ->
        Alcotest.(check string) "listener address" path
          (J.get_string "addr" (J.of_string l)))

(* --- Prog_json round-trip --------------------------------------------------- *)

let roundtrip_ok src =
  match Ogc_minic.Minic.compile src with
  | exception Ogc_minic.Minic.Error _ -> true  (* generator can overshoot *)
  | p ->
    let p' = Prog_json.of_json (Prog_json.to_json p) in
    Ogc_ir.Validate.program p';
    String.equal (Ogc_ir.Asm.to_string p) (Ogc_ir.Asm.to_string p')

let prop_prog_json_roundtrip =
  QCheck.Test.make ~name:"random MiniC programs round-trip through Prog_json"
    ~count:150 Gen_minic.arbitrary_program roundtrip_ok

let test_workloads_roundtrip () =
  List.iter
    (fun (w : Workload.t) ->
      let p = Workload.compile w Workload.Train in
      let p' = Prog_json.of_json (Prog_json.to_json p) in
      Ogc_ir.Validate.program p';
      Alcotest.(check string) w.Workload.name
        (Ogc_ir.Asm.to_string p) (Ogc_ir.Asm.to_string p'))
    Workload.all

let test_prog_json_rejects_garbage () =
  List.iter
    (fun j ->
      match Prog_json.of_json (J.of_string j) with
      | exception J.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted %s" j)
    [ {|{}|};
      {|{"format":"ogc.prog","version":999,"globals":[],"funcs":[]}|};
      {|{"format":"not.prog","version":1,"globals":[],"funcs":[]}|};
      {|{"format":"ogc.prog","version":1,"globals":[],"funcs":"x"}|} ]

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "server"
    [ ("cache",
       [ Alcotest.test_case "hit/miss determinism" `Quick
           test_cache_hit_determinism;
         Alcotest.test_case "version in envelope" `Quick
           test_cache_version_in_envelope;
         Alcotest.test_case "disk persistence" `Quick
           test_cache_disk_persistence;
         Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
         Alcotest.test_case "unwritable disk tier" `Quick
           test_cache_unwritable_disk_tier;
         Alcotest.test_case "unreadable disk entry" `Quick
           test_cache_unreadable_entry;
         Alcotest.test_case "full-disk write publishes nothing" `Quick
           test_cache_full_disk_write;
         Alcotest.test_case "per-pass artifact reuse" `Quick
           test_per_pass_artifact_reuse ]);
      ("scheduler",
       [ Alcotest.test_case "deadline expiry" `Quick test_deadline_expiry;
         Alcotest.test_case "bounded-queue rejection" `Quick
           test_bounded_queue_rejection;
         Alcotest.test_case "malformed requests" `Quick
           test_malformed_requests;
         Alcotest.test_case "pool metrics count only pool jobs" `Quick
           test_pool_metrics_count_pool_jobs;
         Alcotest.test_case "handler exception is one error reply" `Quick
           test_front_handler_exception ]);
      ("flight",
       [ Alcotest.test_case "record stamped at completion" `Quick
           test_flight_ts_at_completion ]);
      ("protocol",
       [ Alcotest.test_case "version handshake" `Quick test_protocol_version;
         Alcotest.test_case "shard cache namespacing" `Quick
           test_shard_cache_namespacing;
         Alcotest.test_case "vrs compiles once" `Quick
           test_vrs_compiles_once;
         Alcotest.test_case "escaped source is the raw request" `Quick
           test_escaped_source_is_the_raw_request ]);
      ("profile",
       [ Alcotest.test_case "push round-trip" `Quick test_profile_roundtrip;
         Alcotest.test_case "concurrent pushes keep epochs monotonic" `Quick
           test_profile_epoch_concurrent;
         Alcotest.test_case "stale-while-revalidate ordering" `Quick
           test_stale_while_revalidate;
         Alcotest.test_case "legacy clients are byte-unaffected" `Quick
           test_legacy_unaffected_by_profiles;
         Alcotest.test_case "profile store keeps a program still pushed"
           `Quick test_profile_store_keeps_pushed_program;
         Alcotest.test_case "stale-answer index keeps a recent shape" `Quick
           test_stale_index_keeps_recent_shape;
         Alcotest.test_case "dropped respecialization is counted and logged"
           `Quick test_dropped_respec_counted;
         Alcotest.test_case "profile store publishes copies" `Quick
           test_profile_store_publishes_copies ]);
      ("drain",
       [ Alcotest.test_case "stop drains cleanly" `Quick test_stop_drains;
         Alcotest.test_case "SIGINT drains cleanly" `Quick
           test_sigint_drains;
         Alcotest.test_case "dropped connection is logged" `Quick
           test_dropped_connection_logged;
         Alcotest.test_case "sequential connections leave nothing behind"
           `Quick test_sequential_connections_leave_nothing ]);
      ("limits",
       [ Alcotest.test_case "oversized line is rejected" `Quick
           test_oversized_line ]);
      ("prog-json",
       [ qt prop_prog_json_roundtrip;
         Alcotest.test_case "workloads round-trip" `Quick
           test_workloads_roundtrip;
         Alcotest.test_case "garbage rejected" `Quick
           test_prog_json_rejects_garbage ]) ]
