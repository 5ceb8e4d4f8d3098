(* Optimization-service tests: cache determinism, deadline expiry,
   bounded-queue rejection, the graceful SIGINT drain and the
   request-line bound — all over a real Unix-domain socket — plus
   Prog_json round-trip properties (the wire form of programs the
   service ships). *)

module J = Ogc_json.Json
module Server = Ogc_server.Server
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

let with_server ?(queue_limit = 64) ?cache_dir ?inject_slow_ms f =
  let path = sock_path () in
  let cfg =
    { (Server.default_config (Net.Unix_sock path)) with
      jobs = Some 1;
      queue_limit;
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

let test_per_pass_artifact_reuse () =
  with_server (fun path t ->
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
        (fun p -> Alcotest.(check int) (p ^ " artifact reused") 1 (hits p))
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
      Alcotest.(check string) "warm store = cold run" cold (result_bytes r2))

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
      Alcotest.(check string) "id echoed" "req-7" (field r "id"))

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
        (field (request path {|{"proto":"x","op":"ping"}|}) "status"))

(* --- shard namespacing ------------------------------------------------------ *)

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

(* --- profile op / online specialization ------------------------------------ *)

module Profile = Ogc_pass.Profile
module Prog = Ogc_ir.Prog

(* A genuine training-run wire profile for [s], at train scale. *)
let wire_profile_json s =
  let p = Ogc_minic.Minic.compile s in
  if Prog.find_global p "input_scale" <> None then
    Workload.set_scale p Workload.Train;
  Profile.to_json (Profile.collect p)

let profile_req ?(source = src) () =
  J.to_string ~indent:false
    (J.Obj
       [ ("op", J.Str "profile"); ("source", J.Str source);
         ("profile", wire_profile_json source) ])

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
  let lines = ref [] and m = Mutex.create () in
  Ogc_obs.Log.set_level Ogc_obs.Log.Warn;
  Ogc_obs.Log.set_sink (fun l ->
      Mutex.protect m (fun () -> lines := l :: !lines));
  Fun.protect
    ~finally:(fun () ->
      Ogc_obs.Log.set_sink prerr_endline;
      Ogc_obs.Log.set_level Ogc_obs.Log.Error)
  @@ fun () ->
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
    Mutex.protect m (fun () ->
        List.find_opt
          (fun l ->
            J.member "msg" (J.of_string l)
            = J.Str "ogc-serve: connection dropped")
          !lines)
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
  let lines = ref [] and m = Mutex.create () in
  Ogc_obs.Log.set_level Ogc_obs.Log.Warn;
  Ogc_obs.Log.set_sink (fun l ->
      Mutex.protect m (fun () -> lines := l :: !lines));
  Fun.protect
    ~finally:(fun () ->
      Ogc_obs.Log.set_sink prerr_endline;
      Ogc_obs.Log.set_level Ogc_obs.Log.Error)
  @@ fun () ->
  with_server (fun path _ ->
      let reply, eof = oversized_exchange path in
      Alcotest.(check string) "status" "error" (field reply "status");
      Alcotest.(check string) "names the limit"
        (string_of_int Net.max_line_bytes)
        (field reply "max_line_bytes");
      Alcotest.(check bool) "connection closed after the reply" true eof;
      Alcotest.(check string) "a fresh connection is served" "ok"
        (field (request path {|{"op":"ping"}|}) "status");
      let warned =
        Mutex.protect m (fun () ->
            List.find_opt
              (fun l ->
                J.member "msg" (J.of_string l)
                = J.Str "ogc-serve: request line too long")
              !lines)
      in
      match warned with
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
         Alcotest.test_case "per-pass artifact reuse" `Quick
           test_per_pass_artifact_reuse ]);
      ("scheduler",
       [ Alcotest.test_case "deadline expiry" `Quick test_deadline_expiry;
         Alcotest.test_case "bounded-queue rejection" `Quick
           test_bounded_queue_rejection;
         Alcotest.test_case "malformed requests" `Quick
           test_malformed_requests ]);
      ("flight",
       [ Alcotest.test_case "record stamped at completion" `Quick
           test_flight_ts_at_completion ]);
      ("protocol",
       [ Alcotest.test_case "version handshake" `Quick test_protocol_version;
         Alcotest.test_case "shard cache namespacing" `Quick
           test_shard_cache_namespacing ]);
      ("profile",
       [ Alcotest.test_case "push round-trip" `Quick test_profile_roundtrip;
         Alcotest.test_case "concurrent pushes keep epochs monotonic" `Quick
           test_profile_epoch_concurrent;
         Alcotest.test_case "stale-while-revalidate ordering" `Quick
           test_stale_while_revalidate;
         Alcotest.test_case "legacy clients are byte-unaffected" `Quick
           test_legacy_unaffected_by_profiles ]);
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
