(* Fleet tests: consistent-hash ring properties (balance, minimal key
   movement on resize), router hedging past an injected slow shard,
   failover past a dead one, hot-key replication (and its failed puts),
   the request-line bound at the router, and a loadgen replay that kills
   a shard mid-run and still completes with zero failures. *)

module J = Ogc_json.Json
module Server = Ogc_server.Server
module Net = Ogc_net.Net
module Protocol = Ogc_server.Protocol
module Ring = Ogc_fleet.Ring
module Router = Ogc_fleet.Router
module Loadgen = Ogc_fleet.Loadgen

let () = Ogc_obs.Log.set_level Ogc_obs.Log.Error

(* --- ring ------------------------------------------------------------------- *)

let shard_names n = List.init n (Printf.sprintf "shard%d")
let keys m = List.init m (Printf.sprintf "key-%d")

let prop_ring_balance =
  QCheck.Test.make ~name:"ring balance stays within 2x the fair share"
    ~count:20
    QCheck.(make Gen.(int_range 2 8))
    (fun n ->
      let ring = Ring.create (shard_names n) in
      let counts = Hashtbl.create n in
      let m = 4000 in
      List.iter
        (fun k ->
          let s = Ring.lookup ring k in
          Hashtbl.replace counts s
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts s)))
        (keys m);
      let mean = float_of_int m /. float_of_int n in
      List.for_all
        (fun s ->
          let c =
            float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts s))
          in
          c <= 2.0 *. mean && c >= mean /. 3.0)
        (shard_names n))

(* Structural, not statistical: adding a shard moves keys only TO the
   new shard; every other key keeps its owner. *)
let prop_ring_join_movement =
  QCheck.Test.make
    ~name:"joining shard only steals keys (no unrelated movement)"
    ~count:20
    QCheck.(make Gen.(int_range 1 6))
    (fun n ->
      let r = Ring.create (shard_names n) in
      let r' = Ring.add r "joiner" in
      List.for_all
        (fun k ->
          let before = Ring.lookup r k and after = Ring.lookup r' k in
          String.equal after before || String.equal after "joiner")
        (keys 800))

let prop_ring_leave_movement =
  QCheck.Test.make
    ~name:"leaving shard only orphans its own keys"
    ~count:20
    QCheck.(make Gen.(int_range 2 6))
    (fun n ->
      let r = Ring.create (shard_names n) in
      let gone = "shard0" in
      let r' = Ring.remove r gone in
      List.for_all
        (fun k ->
          let before = Ring.lookup r k in
          String.equal before gone
          || String.equal (Ring.lookup r' k) before)
        (keys 800))

(* The statistical half of minimal movement: a join steals about 1/(n+1)
   of the keyspace, bounded loosely here against vnode variance. *)
let prop_ring_join_moves_fair_share =
  QCheck.Test.make ~name:"joining shard steals roughly a fair share"
    ~count:20
    QCheck.(make Gen.(int_range 2 6))
    (fun n ->
      let r = Ring.create (shard_names n) in
      let r' = Ring.add r "joiner" in
      let m = 2000 in
      let moved =
        List.length
          (List.filter
             (fun k -> not (String.equal (Ring.lookup r k) (Ring.lookup r' k)))
             (keys m))
      in
      let fair = float_of_int m /. float_of_int (n + 1) in
      float_of_int moved <= 2.5 *. fair)

let test_ring_basics () =
  let r = Ring.create ~vnodes:64 [ "b"; "a"; "c"; "a" ] in
  Alcotest.(check (list string)) "members sorted, deduplicated"
    [ "a"; "b"; "c" ] (Ring.shards r);
  Alcotest.(check string) "lookup is deterministic"
    (Ring.lookup r "some-key") (Ring.lookup r "some-key");
  let succ = Ring.successors r "some-key" 3 in
  Alcotest.(check int) "successors are distinct" 3
    (List.length (List.sort_uniq String.compare succ));
  Alcotest.(check string) "owner heads the successor list"
    (Ring.lookup r "some-key") (List.hd succ);
  Alcotest.(check int) "successors clamp to the shard count" 3
    (List.length (Ring.successors r "some-key" 99));
  Alcotest.(check string) "add is idempotent on members"
    (Ring.lookup r "k") (Ring.lookup (Ring.add r "a") "k");
  (match Ring.create [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty ring accepted");
  match Ring.remove (Ring.create [ "only" ]) "only" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "removing the last shard accepted"

(* --- in-process fleet helpers ----------------------------------------------- *)

let sock_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "/tmp/ogc-fleet-%d-%d.sock" (Unix.getpid ()) !n

let src_of i =
  Printf.sprintf "int main() { emit(%d & 0xFF); return 0; }" (i * 7)

let analyze_line ?(pass = "none") src =
  J.to_string ~indent:false
    (J.Obj
       [ ("proto", J.Int Protocol.proto_version);
         ("source", J.Str src);
         ("pass", J.Str pass) ])

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

(* The route key of the request [analyze_line src] would produce — used
   to steer a test program onto a chosen primary shard. *)
let route_key_of src =
  match Protocol.op_of_json (J.of_string (analyze_line src)) with
  | Protocol.Analyze req -> Protocol.route_key req
  | _ -> assert false

(* A source whose primary under [ring] is [want]. *)
let src_with_primary ring want =
  let rec go i =
    if i > 10_000 then Alcotest.fail "no source found for primary"
    else
      let src = src_of i in
      if String.equal (Ring.lookup ring (route_key_of src)) want then src
      else go (i + 1)
  in
  go 0

type shard_proc = {
  sp_name : string;
  sp_path : string;
  sp_t : Server.t;
  sp_th : Thread.t;
}

let start_shard name =
  let path = sock_path () in
  let cfg =
    { (Server.default_config (Net.Unix_sock path)) with jobs = Some 1 }
  in
  let t = Server.create cfg in
  { sp_name = name; sp_path = path; sp_t = t;
    sp_th = Thread.create Server.run t }

let stop_shard sp =
  Server.stop sp.sp_t;
  Thread.join sp.sp_th;
  if Sys.file_exists sp.sp_path then Sys.remove sp.sp_path

let with_fleet ?(n = 3) ?(router_cfg = fun c -> c) f =
  let shards = List.init n (fun i -> start_shard (Printf.sprintf "s%d" i)) in
  Server.link_stores (List.map (fun sp -> sp.sp_t) shards);
  let rpath = sock_path () in
  let targets =
    List.map
      (fun sp ->
        { Router.t_name = sp.sp_name; t_addr = Net.Unix_sock sp.sp_path })
      shards
  in
  let cfg =
    router_cfg
      (Router.default_config ~addr:(Net.Unix_sock rpath) ~shards:targets)
  in
  let r = Router.create cfg in
  let rth = Thread.create Router.run r in
  Fun.protect
    ~finally:(fun () ->
      Router.stop r;
      Thread.join rth;
      List.iter stop_shard shards;
      if Sys.file_exists rpath then Sys.remove rpath)
    (fun () -> f rpath r shards)

(* A fake shard that answers every request line, but only after
   [delay] seconds — an injected straggler for the hedging test. *)
let start_slow_shard delay =
  let path = sock_path () in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  if Sys.file_exists path then Unix.unlink path;
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  let stopping = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        while not (Atomic.get stopping) do
          match Unix.accept fd with
          | c, _ ->
            if Atomic.get stopping then (
              try Unix.close c with Unix.Unix_error _ -> ())
            else
              ignore
                (Thread.create
                   (fun () ->
                     let ic = Unix.in_channel_of_descr c in
                     let oc = Unix.out_channel_of_descr c in
                     (try
                        while true do
                          let _ = input_line ic in
                          Thread.delay delay;
                          output_string oc
                            {|{"version":"slow","status":"ok","result":{"from":"slow"}}|};
                          output_char oc '\n';
                          flush oc
                        done
                      with _ -> ());
                     try Unix.close c with Unix.Unix_error _ -> ())
                   ())
          | exception Unix.Unix_error _ -> ()
        done)
      ()
  in
  let stop () =
    if not (Atomic.exchange stopping true) then begin
      (let w = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       (try Unix.connect w (Unix.ADDR_UNIX path)
        with Unix.Unix_error _ -> ());
       try Unix.close w with Unix.Unix_error _ -> ());
      Thread.join th;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if Sys.file_exists path then Sys.remove path
    end
  in
  (path, stop)

(* --- router ------------------------------------------------------------------ *)

let test_router_routes_and_caches () =
  with_fleet ~n:3 (fun rpath r _shards ->
      let line = analyze_line (src_of 1) in
      let r1 = request rpath line in
      Alcotest.(check string) "first ok" "ok" (field r1 "status");
      Alcotest.(check string) "first misses" "miss" (field r1 "cache");
      (* The replay routes to the same shard, whose result cache hits. *)
      let r2 = request rpath line in
      Alcotest.(check string) "replay ok" "ok" (field r2 "status");
      Alcotest.(check string) "replay hits its shard's cache" "hit"
        (field r2 "cache");
      (* Router-local ops answer without touching a shard. *)
      Alcotest.(check string) "ping" "ok"
        (field (request rpath {|{"op":"ping"}|}) "status");
      let stats = Router.stats_json r in
      Alcotest.(check bool) "stats counts routed requests" true
        (J.get_int "routed" stats >= 2);
      (* Version mismatches are rejected at the router, pre-routing. *)
      Alcotest.(check string) "proto mismatch rejected at the router"
        "unsupported_protocol"
        (field (request rpath {|{"proto":777,"op":"ping"}|}) "status"))

let test_router_hedges_past_slow_shard () =
  let slow_path, stop_slow = start_slow_shard 2.0 in
  Fun.protect ~finally:stop_slow (fun () ->
      let live = start_shard "live" in
      Fun.protect
        ~finally:(fun () -> stop_shard live)
        (fun () ->
          let rpath = sock_path () in
          let targets =
            [ { Router.t_name = "slow"; t_addr = Net.Unix_sock slow_path };
              { Router.t_name = "live";
                t_addr = Net.Unix_sock live.sp_path } ]
          in
          let cfg =
            { (Router.default_config ~addr:(Net.Unix_sock rpath)
                 ~shards:targets)
              with
              hedge_ms = Some 25.0
            }
          in
          let r = Router.create cfg in
          let rth = Thread.create Router.run r in
          Fun.protect
            ~finally:(fun () ->
              Router.stop r;
              Thread.join rth;
              if Sys.file_exists rpath then Sys.remove rpath)
            (fun () ->
              let ring = Ring.create [ "slow"; "live" ] in
              let src = src_with_primary ring "slow" in
              let t0 = Unix.gettimeofday () in
              let resp = request rpath (analyze_line src) in
              let dt = Unix.gettimeofday () -. t0 in
              Alcotest.(check string) "hedged request answers ok" "ok"
                (field resp "status");
              (* The winning response is the live server's, not the
                 straggler's canned payload. *)
              Alcotest.(check string) "live shard won"
                Ogc_server.Version.version (field resp "version");
              Alcotest.(check bool)
                (Printf.sprintf "answered before the straggler (%.0fms)"
                   (dt *. 1000.0))
                true (dt < 1.5);
              let stats = Router.stats_json r in
              Alcotest.(check bool) "hedge counted" true
                (J.get_int "hedged" stats >= 1);
              Alcotest.(check bool) "hedge win counted" true
                (J.get_int "hedge_wins" stats >= 1))))

let test_router_fails_over_dead_shard () =
  let live = start_shard "live" in
  Fun.protect
    ~finally:(fun () -> stop_shard live)
    (fun () ->
      let rpath = sock_path () in
      let dead_path = sock_path () in
      (* never bound: connects fail immediately *)
      let targets =
        [ { Router.t_name = "dead"; t_addr = Net.Unix_sock dead_path };
          { Router.t_name = "live"; t_addr = Net.Unix_sock live.sp_path } ]
      in
      let cfg =
        Router.default_config ~addr:(Net.Unix_sock rpath) ~shards:targets
      in
      let r = Router.create cfg in
      let rth = Thread.create Router.run r in
      Fun.protect
        ~finally:(fun () ->
          Router.stop r;
          Thread.join rth;
          if Sys.file_exists rpath then Sys.remove rpath)
        (fun () ->
          let ring = Ring.create [ "dead"; "live" ] in
          let src = src_with_primary ring "dead" in
          let resp = request rpath (analyze_line src) in
          Alcotest.(check string) "failover answers ok" "ok"
            (field resp "status");
          Alcotest.(check bool) "failover counted" true
            (J.get_int "failovers" (Router.stats_json r) >= 1)))

let test_router_replicates_hot_keys () =
  with_fleet ~n:3
    ~router_cfg:(fun c -> { c with Router.promote_after = 2; replicas = 2 })
    (fun rpath r shards ->
      let line = analyze_line (src_of 2) in
      for _ = 1 to 3 do
        Alcotest.(check string) "hot request ok" "ok"
          (field (request rpath line) "status")
      done;
      Alcotest.(check bool) "promotion counted" true
        (J.get_int "promotions" (Router.stats_json r) >= 1);
      (* The replicate runs off the request path; poll the shards until
         some replica has accepted the put. *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec poll () =
        let puts =
          List.fold_left
            (fun acc sp ->
              acc
              + J.get_int "puts"
                  (J.member "replication" (Server.stats_json sp.sp_t)))
            0 shards
        in
        if puts >= 1 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "no shard accepted a replica put within 5s"
        else begin
          Thread.delay 0.02;
          poll ()
        end
      in
      poll ())

(* A put to a stopped replica shard is a failed put: counted per shard
   and logged at warn with the shard name and the error. *)
let test_router_counts_failed_replica_puts () =
  let lines = ref [] and m = Mutex.create () in
  let metrics_were = Ogc_obs.Metrics.enabled () in
  Ogc_obs.Metrics.set_enabled true;
  Ogc_obs.Log.set_level Ogc_obs.Log.Warn;
  Ogc_obs.Log.set_sink (fun l ->
      Mutex.protect m (fun () -> lines := l :: !lines));
  Fun.protect
    ~finally:(fun () ->
      Ogc_obs.Log.set_sink prerr_endline;
      Ogc_obs.Log.set_level Ogc_obs.Log.Error;
      Ogc_obs.Metrics.set_enabled metrics_were)
  @@ fun () ->
  with_fleet ~n:2
    ~router_cfg:(fun c -> { c with Router.promote_after = 2; replicas = 2 })
    (fun rpath _ shards ->
      let src = src_of 3 in
      let ring = Ring.create (List.map (fun sp -> sp.sp_name) shards) in
      let replica =
        match Ring.successors ring (route_key_of src) 2 with
        | [ _primary; replica ] -> replica
        | _ -> Alcotest.fail "expected two ring successors"
      in
      stop_shard (List.find (fun sp -> sp.sp_name = replica) shards);
      for _ = 1 to 2 do
        Alcotest.(check string) "hot request ok" "ok"
          (field (request rpath (analyze_line src)) "status")
      done;
      let failures () =
        List.fold_left
          (fun acc (name, labels, v) ->
            match v with
            | J.Float f
              when name = "ogc_router_shard_replica_put_failures_total"
                   && labels = [ ("shard", replica) ] ->
              acc +. f
            | _ -> acc)
          0.0 (Ogc_obs.Metrics.snapshot ())
      in
      let warned () =
        Mutex.protect m (fun () ->
            List.find_opt
              (fun l ->
                J.member "msg" (J.of_string l)
                = J.Str "ogc-router: replica put failed")
              !lines)
      in
      (* The put runs off the request path. *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      while
        (failures () < 1.0 || warned () = None)
        && Unix.gettimeofday () < deadline
      do
        Thread.delay 0.02
      done;
      Alcotest.(check bool) "failure counted for the replica" true
        (failures () >= 1.0);
      match warned () with
      | None -> Alcotest.fail "no warn line for the failed put"
      | Some l ->
        let j = J.of_string l in
        Alcotest.(check string) "names the shard" replica
          (J.get_string "shard" j);
        Alcotest.(check bool) "carries the error" true
          (J.get_string "error" j <> ""))

(* Sends [max_line_bytes + 1] bytes with no newline through the router;
   the reply names the limit, the connection closes, and the router
   keeps serving. *)
let test_router_rejects_oversized_line () =
  with_fleet ~n:1 (fun rpath _ _ ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX rpath);
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
          let big = String.make (Net.max_line_bytes + 1) 'x' in
          ignore (Unix.write_substring fd big 0 (String.length big));
          let ic = Unix.in_channel_of_descr fd in
          let reply = input_line ic in
          Alcotest.(check string) "status" "error" (field reply "status");
          Alcotest.(check string) "names the limit"
            (string_of_int Net.max_line_bytes)
            (field reply "max_line_bytes");
          Alcotest.(check bool) "connection closed after the reply" true
            (match input_line ic with
            | _ -> false
            | exception End_of_file -> true));
      Alcotest.(check string) "a fresh connection is served" "ok"
        (field (request rpath {|{"op":"ping"}|}) "status"))

(* --- distributed tracing (the acceptance criterion) -------------------------- *)

module Span = Ogc_obs.Span
module Flight = Ogc_obs.Flight

(* A hedged request against a deliberately slowed primary must leave one
   connected trace: the router's request span, both shard attempts, the
   winning shard's request span, its pool-worker execution and the
   nested pass spans, all under the client's trace id, with every
   flow-finish resolving to a flow-start.  Shards here are in-process
   threads, so the whole fleet shares one ring set and [Span.export]
   sees all sides at once. *)
let test_hedged_request_one_connected_trace () =
  Span.reset ();
  Flight.reset ();
  Span.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Span.set_enabled false;
      Span.reset ();
      Flight.reset ())
  @@ fun () ->
  let slow_path, stop_slow = start_slow_shard 2.0 in
  Fun.protect ~finally:stop_slow @@ fun () ->
  let live = start_shard "live" in
  Fun.protect ~finally:(fun () -> stop_shard live) @@ fun () ->
  let rpath = sock_path () in
  let targets =
    [ { Router.t_name = "slow"; t_addr = Net.Unix_sock slow_path };
      { Router.t_name = "live"; t_addr = Net.Unix_sock live.sp_path } ]
  in
  let cfg =
    { (Router.default_config ~addr:(Net.Unix_sock rpath) ~shards:targets)
      with hedge_ms = Some 25.0 }
  in
  let r = Router.create cfg in
  let rth = Thread.create Router.run r in
  Fun.protect
    ~finally:(fun () ->
      Router.stop r;
      Thread.join rth;
      if Sys.file_exists rpath then Sys.remove rpath)
  @@ fun () ->
  let ring = Ring.create [ "slow"; "live" ] in
  let src = src_with_primary ring "slow" in
  let trace = "t-accept" in
  let line =
    J.to_string ~indent:false
      (J.Obj
         [ ("proto", J.Int Protocol.proto_version);
           ("source", J.Str src);
           ("pass", J.Str "vrp");
           ("trace_id", J.Str trace) ])
  in
  let resp = request rpath line in
  Alcotest.(check string) "hedged traced request ok" "ok"
    (field resp "status");
  Alcotest.(check string) "live shard won" Ogc_server.Version.version
    (field resp "version");
  let events =
    match J.member "traceEvents" (Span.export ()) with
    | J.Arr evs -> evs
    | _ -> Alcotest.fail "no traceEvents"
  in
  let begins_of_trace =
    List.filter_map
      (fun e ->
        match (J.member "ph" e, J.member "name" e, J.member "args" e) with
        | J.Str "B", J.Str name, args
          when J.member "trace_id" args = J.Str trace ->
          Some (name, args)
        | _ -> None)
      events
  in
  let count name =
    List.length (List.filter (fun (n, _) -> n = name) begins_of_trace)
  in
  (* Router request span, both attempts (primary to the straggler, the
     winning hedge), the live shard's request span, its pool-worker
     execution and the nested pass chain — all one trace id. *)
  Alcotest.(check bool) "router and shard request spans" true
    (count "request" >= 2);
  Alcotest.(check int) "both shard attempts traced" 2 (count "attempt");
  Alcotest.(check bool) "pool-worker execution traced" true
    (count "pool:task" >= 1);
  Alcotest.(check bool) "analyze traced" true (count "analyze" >= 1);
  Alcotest.(check bool) "nested pass spans traced" true
    (List.exists
       (fun (n, _) ->
         String.length n > 5 && String.sub n 0 5 = "pass:")
       begins_of_trace);
  (* Attempt spans nest under the router's request span. *)
  let request_sids =
    List.filter_map
      (fun (n, args) ->
        if n = "request" then
          match J.member "span_id" args with J.Int i -> Some i | _ -> None
        else None)
      begins_of_trace
  in
  List.iter
    (fun (n, args) ->
      if n = "attempt" then
        match J.member "parent_span" args with
        | J.Int p ->
          Alcotest.(check bool) "attempt nests under a request span" true
            (List.mem p request_sids)
        | _ -> Alcotest.fail "attempt span lacks parent_span")
    begins_of_trace;
  (* Flow events connect the processes: every finish resolves to a
     start (the straggler's start may dangle — its canned shard emits
     nothing — but nothing resolves from nowhere). *)
  let flow_ids ph =
    List.filter_map
      (fun e ->
        if J.member "ph" e = J.Str ph then
          match J.member "id" e with J.Int i -> Some i | _ -> None
        else None)
      events
  in
  let outs = flow_ids "s" and ins = flow_ids "f" in
  Alcotest.(check bool) "winner's wire flow resolved" true
    (ins <> [] && List.for_all (fun i -> List.mem i outs) ins);
  (* The router's flight record ties the planes together. *)
  let fr =
    List.find_opt
      (fun fr ->
        fr.Flight.f_shard = "router" && fr.Flight.f_trace = Some trace)
      (Flight.snapshot ())
  in
  (match fr with
  | Some fr ->
    Alcotest.(check string) "flight op" "analyze" fr.Flight.f_op;
    Alcotest.(check bool) "flight marks the hedge" true fr.Flight.f_hedged;
    Alcotest.(check string) "flight outcome" "ok" fr.Flight.f_outcome
  | None -> Alcotest.fail "no router flight record for the trace");
  (* The trace op assembles router + reachable shards into one document
     ogc trace --fleet can merge. *)
  let tresp = request rpath {|{"proto":1,"op":"trace"}|} in
  Alcotest.(check string) "trace op ok" "ok" (field tresp "status");
  let procs =
    match J.member "processes" (J.member "result" (J.of_string tresp)) with
    | J.Arr ps ->
      List.filter_map
        (fun p ->
          match (J.member "name" p, J.member "trace" p) with
          | J.Str n, t -> Some (n, t)
          | _ -> None)
        ps
    | _ -> Alcotest.fail "trace op returned no processes"
  in
  Alcotest.(check bool) "router heads the process list" true
    (match procs with ("router", _) :: _ -> true | _ -> false);
  Alcotest.(check bool) "live shard's rings included" true
    (List.mem_assoc "live" procs);
  (match J.member "traceEvents" (Span.merge_processes procs) with
  | J.Arr evs ->
    Alcotest.(check bool) "merged document has events" true (evs <> [])
  | _ -> Alcotest.fail "merge produced no traceEvents");
  (* And the flight op returns the ring. *)
  let fresp = request rpath {|{"proto":1,"op":"flight"}|} in
  Alcotest.(check string) "flight op ok" "ok" (field fresp "status");
  match J.member "total" (J.member "result" (J.of_string fresp)) with
  | J.Int n -> Alcotest.(check bool) "flight ring populated" true (n >= 1)
  | _ -> Alcotest.fail "flight op returned no total"

(* Tracing off (the default), the router forwards the client's request
   line byte-for-byte — the wire traffic is identical to the seed's. *)
let test_untraced_wire_bytes_unchanged () =
  Alcotest.(check bool) "spans disabled" false (Span.enabled ());
  let captured = ref [] in
  let cap_m = Mutex.create () in
  let path, stop =
    let path = sock_path () in
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    if Sys.file_exists path then Unix.unlink path;
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 4;
    let stopping = Atomic.make false in
    let th =
      Thread.create
        (fun () ->
          while not (Atomic.get stopping) do
            match Unix.accept fd with
            | c, _ ->
              if Atomic.get stopping then (
                try Unix.close c with Unix.Unix_error _ -> ())
              else
                ignore
                  (Thread.create
                     (fun () ->
                       let ic = Unix.in_channel_of_descr c in
                       let oc = Unix.out_channel_of_descr c in
                       (try
                          while true do
                            let l = input_line ic in
                            Mutex.lock cap_m;
                            captured := l :: !captured;
                            Mutex.unlock cap_m;
                            output_string oc
                              {|{"version":"echo","status":"ok","result":{}}|};
                            output_char oc '\n';
                            flush oc
                          done
                        with _ -> ());
                       try Unix.close c with Unix.Unix_error _ -> ())
                     ())
            | exception Unix.Unix_error _ -> ()
          done)
        ()
    in
    ( path,
      fun () ->
        if not (Atomic.exchange stopping true) then begin
          (let w = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
           (try Unix.connect w (Unix.ADDR_UNIX path)
            with Unix.Unix_error _ -> ());
           try Unix.close w with Unix.Unix_error _ -> ());
          Thread.join th;
          (try Unix.close fd with Unix.Unix_error _ -> ());
          if Sys.file_exists path then Sys.remove path
        end )
  in
  Fun.protect ~finally:stop @@ fun () ->
  let rpath = sock_path () in
  let cfg =
    Router.default_config ~addr:(Net.Unix_sock rpath)
      ~shards:[ { Router.t_name = "echo"; t_addr = Net.Unix_sock path } ]
  in
  let r = Router.create cfg in
  let rth = Thread.create Router.run r in
  Fun.protect
    ~finally:(fun () ->
      Router.stop r;
      Thread.join rth;
      if Sys.file_exists rpath then Sys.remove rpath)
  @@ fun () ->
  let line = analyze_line (src_of 5) in
  ignore (request rpath line);
  Alcotest.(check (list string)) "forwarded byte-identically" [ line ]
    !captured

(* --- loadgen ----------------------------------------------------------------- *)

let test_loadgen_stream_is_deterministic () =
  let cfg =
    { (Loadgen.default_config ~addr:(Net.Unix_sock "/tmp/unused.sock"))
      with
      requests = 200;
      warm_ratio = 0.6
    }
  in
  let lines = List.init 200 (Loadgen.request_line cfg) in
  let lines' = List.init 200 (Loadgen.request_line cfg) in
  Alcotest.(check (list string)) "stream is a pure function of the seed"
    lines lines';
  (* Warm replays are byte-identical to earlier requests, so at this
     warm ratio the stream must contain duplicates. *)
  let distinct = List.length (List.sort_uniq String.compare lines) in
  Alcotest.(check bool)
    (Printf.sprintf "warm replays duplicate lines (%d distinct)" distinct)
    true
    (distinct < 200);
  (* Every line parses as a protocol-correct analyze op. *)
  List.iter
    (fun l ->
      match Protocol.op_of_json (J.of_string l) with
      | Protocol.Analyze _ -> ()
      | _ -> Alcotest.fail "loadgen emitted a non-analyze op")
    lines

let test_loadgen_survives_shard_kill () =
  with_fleet ~n:3 (fun rpath _r shards ->
      let victim = List.hd shards in
      let cfg =
        { (Loadgen.default_config ~addr:(Net.Unix_sock rpath)) with
          requests = 60;
          clients = 2;
          warm_ratio = 0.5;
          retries = 8 }
      in
      let killed = Atomic.make false in
      let report =
        Loadgen.run
          ~kill:
            ( 15,
              fun () ->
                Atomic.set killed true;
                Server.stop victim.sp_t )
          cfg
      in
      Alcotest.(check bool) "kill fired mid-run" true (Atomic.get killed);
      Alcotest.(check int) "all submissions completed" 60
        report.Loadgen.total;
      Alcotest.(check int) "zero failed submissions" 0
        report.Loadgen.failed;
      Alcotest.(check int) "every submission answered ok" 60
        report.Loadgen.ok;
      Alcotest.(check bool) "latency percentiles populated" true
        (report.Loadgen.p50_ms > 0.0
        && report.Loadgen.p95_ms >= report.Loadgen.p50_ms))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "fleet"
    [ ("ring",
       [ Alcotest.test_case "basics" `Quick test_ring_basics;
         qt prop_ring_balance;
         qt prop_ring_join_movement;
         qt prop_ring_leave_movement;
         qt prop_ring_join_moves_fair_share ]);
      ("router",
       [ Alcotest.test_case "routes and caches" `Quick
           test_router_routes_and_caches;
         Alcotest.test_case "hedges past a slow shard" `Quick
           test_router_hedges_past_slow_shard;
         Alcotest.test_case "fails over a dead shard" `Quick
           test_router_fails_over_dead_shard;
         Alcotest.test_case "replicates hot keys" `Quick
           test_router_replicates_hot_keys;
         Alcotest.test_case "counts and logs failed replica puts" `Quick
           test_router_counts_failed_replica_puts;
         Alcotest.test_case "rejects an oversized line" `Quick
           test_router_rejects_oversized_line ]);
      ("tracing",
       [ Alcotest.test_case "untraced wire bytes unchanged" `Quick
           test_untraced_wire_bytes_unchanged;
         Alcotest.test_case "hedged request leaves one connected trace"
           `Quick test_hedged_request_one_connected_trace ]);
      ("loadgen",
       [ Alcotest.test_case "deterministic stream" `Quick
           test_loadgen_stream_is_deterministic;
         Alcotest.test_case "survives a shard kill" `Quick
           test_loadgen_survives_shard_kill ]) ]
