module J = Ogc_json.Json
module Pool = Ogc_exec.Pool
module Metrics = Ogc_obs.Metrics
module Span = Ogc_obs.Span
module Log = Ogc_obs.Log
module Flight = Ogc_obs.Flight
module Clock = Ogc_obs.Clock
module Net = Ogc_net.Net

exception Deadline_exceeded

(* Per-op request counters and latency histograms; "invalid" covers
   lines that never parsed far enough to name an op. *)
let known_ops =
  [ "analyze"; "stats"; "ping"; "metrics"; "fetch"; "put"; "trace"; "flight";
    "profile"; "respec"; "invalid" ]

let m_requests =
  List.map
    (fun o ->
      (o, Metrics.counter "ogc_server_requests_total" ~labels:[ ("op", o) ]))
    known_ops

let m_latency =
  List.map
    (fun o ->
      ( o,
        Metrics.histogram "ogc_server_request_seconds" ~labels:[ ("op", o) ]
      ))
    known_ops

type config = {
  addr : Net.addr;
  jobs : int option;
  queue_limit : int;
  cache_capacity : int;
  cache_dir : string option;
  shard_id : string option;
  slow_ms : float option; (* flight-recorder slow-request threshold *)
  inject_slow_ms : float option; (* fault injection: delay every analyze *)
}

let default_config addr =
  { addr;
    jobs = None;
    queue_limit = 64;
    cache_capacity = 256;
    cache_dir = None;
    shard_id = None;
    slow_ms = None;
    inject_slow_ms = None }

let lat_window = 1024

type t = {
  cfg : config;
  listener : Net.listener;
  pool : Pool.t;
  cache : Cache.t;
  passes : Ogc_pass.Pass.Store.t;
      (* per-pass artifact tier under the whole-result cache: a request
         that misses [cache] still reuses the chain-prefix artifacts
         (VRP fixpoint, training profiles) computed by earlier requests *)
  profiles : Profile_store.t;
      (* accumulated execution profiles, one per program (route_key) *)
  pending : int Atomic.t;  (* analyses queued or running *)
  started : float;
  m : Mutex.t;  (* guards the mutable fields below *)
  served : (string, int * string) Hashtbl.t;
      (* epoch-free cache key -> (epoch, epoch-salted key) of the newest
         artifact computed for that request shape: where the
         stale-while-revalidate path finds the previous-epoch answer *)
  respec_inflight : (string, unit) Hashtbl.t;
      (* epoch-salted keys with a background re-specialization queued or
         running — dedup so a burst of stale hits schedules one *)
  mutable requests : int;
  mutable analyses : int;  (* cache misses actually computed *)
  mutable errors : int;
  mutable rejected : int;  (* overload replies *)
  mutable expired : int;  (* deadline replies *)
  mutable fetches : int;  (* replication fetch ops served *)
  mutable fetch_hits : int;  (* ... that found the key *)
  mutable puts : int;  (* replication put ops accepted *)
  mutable stale_served : int;  (* previous-epoch answers served *)
  mutable respecs : int;  (* background re-specializations completed *)
  latencies : float array;  (* ring of the last [lat_window] latencies, ms *)
  mutable lat_n : int;
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* --- socket setup --------------------------------------------------------- *)

let create cfg =
  let listener = Net.listen ~name:"ogc-serve" cfg.addr in
  (match cfg.slow_ms with
  | Some _ -> Flight.set_slow_ms cfg.slow_ms
  | None -> ());
  (* Co-located shards sharing a cache_dir get disjoint subdirectories,
     so their atomic tmp+rename writes can never collide on one path. *)
  let cache_dir =
    match (cfg.cache_dir, cfg.shard_id) with
    | Some d, Some id ->
      if not (Sys.file_exists d) then Unix.mkdir d 0o755;
      Some (Filename.concat d ("shard-" ^ id))
    | d, _ -> d
  in
  { cfg;
    listener;
    pool = Pool.create ?jobs:cfg.jobs ();
    cache = Cache.create ~capacity:cfg.cache_capacity ?dir:cache_dir ();
    passes = Ogc_pass.Pass.Store.create ~capacity:cfg.cache_capacity ();
    profiles = Profile_store.create ~capacity:cfg.cache_capacity ();
    pending = Atomic.make 0;
    started = Clock.now ();
    m = Mutex.create ();
    served = Hashtbl.create 64;
    respec_inflight = Hashtbl.create 8;
    requests = 0;
    analyses = 0;
    errors = 0;
    rejected = 0;
    expired = 0;
    fetches = 0;
    fetch_hits = 0;
    puts = 0;
    stale_served = 0;
    respecs = 0;
    latencies = Array.make lat_window 0.0;
    lat_n = 0 }

(* Co-located in-process shards: wire every shard's pass store to peek
   at its siblings' on a local miss, so a chain-prefix artifact computed
   on any shard is visible fleet-wide.  [peek] never takes a sibling's
   find path, so the consultation cannot recurse or deadlock. *)
let link_stores ts =
  List.iter
    (fun t ->
      let siblings = List.filter (fun s -> s != t) ts in
      Ogc_pass.Pass.Store.set_fallback t.passes (fun ~pass key ->
          List.find_map
            (fun s -> Ogc_pass.Pass.Store.peek s.passes ~pass key)
            siblings))
    ts

(* --- stats ----------------------------------------------------------------- *)

let percentile = Metrics.percentile_sorted

let stats_json t =
  let c = Cache.stats t.cache in
  let lats, counters, repl, stale =
    locked t (fun () ->
        ( Array.sub t.latencies 0 (min t.lat_n lat_window),
          (t.requests, t.analyses, t.errors, t.rejected, t.expired, t.lat_n),
          (t.fetches, t.fetch_hits, t.puts),
          (t.stale_served, t.respecs) ))
  in
  let requests, analyses, errors, rejected, expired, lat_n = counters in
  let fetches, fetch_hits, puts = repl in
  let stale_served, respecs = stale in
  Array.sort compare lats;
  let lookups = c.Cache.hits + c.Cache.misses in
  J.Obj
    ((match t.cfg.shard_id with
     | Some id -> [ ("shard_id", J.Str id) ]
     | None -> [])
    @ [ ("uptime_s", J.Float (Clock.since t.started));
      ("requests", J.Int requests);
      ("analyses", J.Int analyses);
      ("errors", J.Int errors);
      ("rejected", J.Int rejected);
      ("expired", J.Int expired);
      ("cache",
       J.Obj
         [ ("entries", J.Int c.Cache.entries);
           ("capacity", J.Int c.Cache.capacity);
           ("hits", J.Int c.Cache.hits);
           ("misses", J.Int c.Cache.misses);
           ("hit_rate",
            J.Float
              (if lookups = 0 then 0.0
               else float_of_int c.Cache.hits /. float_of_int lookups));
           ("evictions", J.Int c.Cache.evictions);
           ("disk_hits", J.Int c.Cache.disk_hits);
           ("mem_bytes", J.Int c.Cache.mem_bytes);
           ("disk_entries", J.Int c.Cache.disk_entries);
           ("disk_bytes", J.Int c.Cache.disk_bytes) ]);
      ("passes",
       J.Obj
         [ ("artifacts", J.Int (Ogc_pass.Pass.Store.entries t.passes));
           ("by_pass",
            J.Obj
              (let replicas =
                 Ogc_pass.Pass.Store.replica_stats t.passes
               in
               List.map
                 (fun (n, h, m) ->
                   ( n,
                     J.Obj
                       ([ ("hits", J.Int h); ("misses", J.Int m) ]
                       @
                       match List.assoc_opt n replicas with
                       | Some r -> [ ("replica", J.Int r) ]
                       | None -> []) ))
                 (Ogc_pass.Pass.Store.pass_stats t.passes))) ]);
      ("replication",
       J.Obj
         [ ("fetches", J.Int fetches);
           ("fetch_hits", J.Int fetch_hits);
           ("puts", J.Int puts) ]);
      ("profile",
       (let programs, pushes = Profile_store.stats t.profiles in
        let fn_hits, fn_runs =
          Ogc_core.Vrp.Fn_cache.stats
            (Ogc_pass.Pass.Store.fn_cache t.passes)
        in
        J.Obj
          [ ("programs", J.Int programs);
            ("pushes", J.Int pushes);
            ("stale_served", J.Int stale_served);
            ("respecializations", J.Int respecs);
            (* per-function VRP memo behind every chain this store ran:
               hits are functions whose final recorded pass was replayed
               rather than recomputed *)
            ("fn_cache",
             J.Obj [ ("hits", J.Int fn_hits); ("runs", J.Int fn_runs) ]) ]));
      ("latency_ms",
       J.Obj
         [ ("count", J.Int lat_n);
           ("p50", J.Float (percentile lats 0.50));
           ("p95", J.Float (percentile lats 0.95)) ]);
      (* Per-op second-denominated histograms from the metrics registry;
         all-zero until metrics are enabled. *)
      ("latency_by_op",
       J.Obj (List.map (fun (o, h) -> (o, Metrics.histogram_json h)) m_latency));
      ("pool",
       J.Obj
         [ ("jobs", J.Int (Pool.size t.pool));
           ("pending", J.Int (Atomic.get t.pending));
           ("queue_limit", J.Int t.cfg.queue_limit) ]) ])

let record_latency t ms =
  locked t (fun () ->
      t.latencies.(t.lat_n mod lat_window) <- ms;
      t.lat_n <- t.lat_n + 1)

(* --- request handling ------------------------------------------------------ *)

let envelope ?id ~status extra =
  J.to_string ~indent:false
    (J.Obj
       (("version", J.Str Version.version)
        :: (match id with Some s -> [ ("id", J.Str s) ] | None -> [])
        @ (("status", J.Str status) :: extra)))

(* Per-request facts the flight recorder wants but only the handler
   knows; filled in as the request progresses, written once at the end
   of [handle_line]. *)
type flight_info = {
  mutable fi_id : string option;
  mutable fi_trace : string option;
  mutable fi_key : string;
  mutable fi_queue_ms : float;
  mutable fi_cache : string;
  mutable fi_status : string;
}

let shard_name t =
  match t.cfg.shard_id with Some i -> "shard-" ^ i | None -> "serve"

(* One background re-specialization per (request shape, epoch),
   admission-gated by the same bounded queue as foreground analyses;
   when the queue is full the respec is simply dropped — the next stale
   hit retries.  The task records a synthetic "respec" flight entry so
   the recorder shows background work next to the requests that rode on
   stale answers while it ran. *)
let schedule_respec t ~(req : Protocol.request) ~rkey ~wire ~epoch ~key
    ~base_key =
  let fresh =
    locked t (fun () ->
        if Hashtbl.mem t.respec_inflight key then false
        else begin
          Hashtbl.replace t.respec_inflight key ();
          true
        end)
  in
  if fresh then begin
    if Atomic.fetch_and_add t.pending 1 >= t.cfg.queue_limit then begin
      Atomic.decr t.pending;
      locked t (fun () -> Hashtbl.remove t.respec_inflight key)
    end
    else begin
      let submitted = Clock.now () in
      ignore
        (Pool.submit t.pool (fun () ->
             let t1 = Clock.now () in
             let outcome =
               try
                 let payload =
                   Span.with_ ~name:"respecialize"
                     ~args:[ ("epoch", J.Int epoch) ]
                     (fun () ->
                       J.to_string ~indent:false
                         (Protocol.analyze ~store:t.passes ?wire req))
                 in
                 Cache.store t.cache key payload;
                 locked t (fun () ->
                     t.respecs <- t.respecs + 1;
                     match Hashtbl.find_opt t.served base_key with
                     | Some (e, _) when e >= epoch -> ()
                     | _ -> Hashtbl.replace t.served base_key (epoch, key));
                 "ok"
               with _ ->
                 locked t (fun () -> t.errors <- t.errors + 1);
                 "error"
             in
             Atomic.decr t.pending;
             locked t (fun () -> Hashtbl.remove t.respec_inflight key);
             Flight.record
               { Flight.f_id = req.Protocol.id;
                 f_trace = None;
                 f_key = rkey;
                 f_shard = shard_name t;
                 f_op = "respec";
                 f_queue_ms = (t1 -. submitted) *. 1000.0;
                 f_hedged = false;
                 f_cache = "miss";
                 f_outcome = outcome;
                 f_ms = Clock.since t1 *. 1000.0;
                 f_ts = Unix.gettimeofday () };
             if Metrics.enabled () then
               match List.assoc_opt "respec" m_requests with
               | Some c -> Metrics.incr c
               | None -> ()))
    end
  end

(* Stale-while-revalidate: a profile push re-addressed this request (its
   epoch joined the cache key), so the fresh key misses — answer from
   the newest previous-epoch artifact immediately and re-specialize in
   the background.  [None] means no usable stale answer: compute
   synchronously as usual. *)
let serve_stale t ~t0 ~fi ?id ~(req : Protocol.request) ~rkey ~wire ~epoch
    ~key ~base_key () =
  if epoch = 0 then None
  else
    match
      locked t (fun () ->
          match Hashtbl.find_opt t.served base_key with
          | Some (e_old, old_key) when e_old < epoch -> Some (e_old, old_key)
          | _ -> None)
    with
    | None -> None
    | Some (e_old, old_key) -> (
      match Cache.find t.cache old_key with
      | None -> None
      | Some payload ->
        schedule_respec t ~req ~rkey ~wire ~epoch ~key ~base_key;
        record_latency t (Clock.since t0 *. 1000.0);
        fi.fi_cache <- "stale";
        locked t (fun () -> t.stale_served <- t.stale_served + 1);
        Some
          (envelope ?id ~status:"ok"
             [ ("cache", J.Str "stale");
               ("profile_epoch", J.Int epoch);
               ("served_epoch", J.Int e_old);
               ("result", J.of_string payload) ]))

let handle_analyze t ~t0 ~fi (req : Protocol.request) =
  (match t.cfg.inject_slow_ms with
  | Some ms when ms > 0.0 -> Thread.delay (ms /. 1000.0)
  | _ -> ());
  let id = req.Protocol.id in
  let rkey = Protocol.route_key req in
  fi.fi_key <- rkey;
  (* One consistent snapshot of the program's accumulated profile: the
     epoch that salts the key is the epoch of the very copy the chain
     will consume.  Only VRS chains consume profiles — every other pass
     keeps its epoch-free key, so a push never invalidates it. *)
  let wire =
    match req.Protocol.pass with
    | Protocol.P_vrs -> Profile_store.find t.profiles rkey
    | _ -> None
  in
  let epoch =
    match wire with Some w -> Ogc_pass.Profile.epoch w | None -> 0
  in
  let key = Protocol.cache_key ~epoch req in
  let base_key = if epoch = 0 then key else Protocol.cache_key req in
  (* Record even at epoch 0: the pre-push artifact is exactly what the
     stale path wants to serve after the first push. *)
  let note_served () =
    if req.Protocol.pass = Protocol.P_vrs then
      locked t (fun () ->
          (* advisory map (a dangling entry just misses the stale path),
             so a hard reset is an acceptable bound *)
          if Hashtbl.length t.served > 4 * t.cfg.cache_capacity then
            Hashtbl.reset t.served;
          match Hashtbl.find_opt t.served base_key with
          | Some (e, _) when e >= epoch -> ()
          | _ -> Hashtbl.replace t.served base_key (epoch, key))
  in
  let fail status =
    fi.fi_status <- status;
    envelope ?id ~status
  in
  match Span.with_ ~name:"cache_lookup" (fun () -> Cache.find t.cache key) with
  | Some payload ->
    record_latency t (Clock.since t0 *. 1000.0);
    fi.fi_cache <- "hit";
    note_served ();
    envelope ?id ~status:"ok"
      [ ("cache", J.Str "hit"); ("result", J.of_string payload) ]
  | None ->
    match
      serve_stale t ~t0 ~fi ?id ~req ~rkey ~wire ~epoch ~key ~base_key ()
    with
    | Some response -> response
    | None ->
    if Option.fold ~none:false ~some:(fun ms -> ms <= 0) req.Protocol.deadline_ms
    then begin
      locked t (fun () -> t.expired <- t.expired + 1);
      fail "deadline_exceeded"
        [ ("error", J.Str "deadline expired before the analysis started") ]
    end
    else if Atomic.fetch_and_add t.pending 1 >= t.cfg.queue_limit then begin
      (* Bounded queue: shed load instead of accepting unbounded work. *)
      Atomic.decr t.pending;
      locked t (fun () -> t.rejected <- t.rejected + 1);
      fail "overloaded"
        [ ("error", J.Str "analysis queue is full, retry later");
          ("queue_limit", J.Int t.cfg.queue_limit) ]
    end
    else begin
      let deadline =
        Option.map (fun ms -> t0 +. (float_of_int ms /. 1000.0))
          req.Protocol.deadline_ms
      in
      let submitted = Clock.now () in
      let ticket =
        Pool.submit t.pool (fun () ->
            let started = Clock.now () in
            fi.fi_queue_ms <- (started -. submitted) *. 1000.0;
            (match deadline with
            | Some d when started > d -> raise Deadline_exceeded
            | _ -> ());
            (* Runs on a worker domain: this span (and the build/
               simulate/energy spans below it) lands on that domain's
               track, with the queue wait visible as the gap from the
               connection thread's enclosing request span. *)
            Span.with_ ~name:"analyze"
              ~args:[ ("pass", J.Str (Protocol.pass_name req.Protocol.pass)) ]
              (fun () ->
                J.to_string ~indent:false
                  (Protocol.analyze ~store:t.passes ?wire req)))
      in
      let outcome =
        match Pool.await ticket with
        | payload -> Ok payload
        | exception e -> Error e
      in
      Atomic.decr t.pending;
      match outcome with
      | Ok payload ->
        Cache.store t.cache key payload;
        note_served ();
        record_latency t (Clock.since t0 *. 1000.0);
        locked t (fun () -> t.analyses <- t.analyses + 1);
        fi.fi_cache <- "miss";
        envelope ?id ~status:"ok"
          [ ("cache", J.Str "miss"); ("result", J.of_string payload) ]
      | Error Deadline_exceeded ->
        locked t (fun () -> t.expired <- t.expired + 1);
        fail "deadline_exceeded"
          [ ("error", J.Str "deadline expired before the analysis started") ]
      | Error (J.Parse_error msg | Failure msg) ->
        locked t (fun () -> t.errors <- t.errors + 1);
        fail "error" [ ("error", J.Str msg) ]
      | Error e ->
        locked t (fun () -> t.errors <- t.errors + 1);
        fail "error" [ ("error", J.Str (Printexc.to_string e)) ]
    end

let handle_line t line =
  let t0 = Clock.now () in
  locked t (fun () -> t.requests <- t.requests + 1);
  let fi =
    { fi_id = None; fi_trace = None; fi_key = ""; fi_queue_ms = 0.0;
      fi_cache = ""; fi_status = "ok" }
  in
  let err status = fi.fi_status <- status in
  let op_name, response =
    match J.of_string line with
    | exception J.Parse_error msg ->
      locked t (fun () -> t.errors <- t.errors + 1);
      err "error";
      ("invalid", envelope ~status:"error" [ ("error", J.Str msg) ])
    | j -> (
      let id = match J.member "id" j with J.Str s -> Some s | _ -> None in
      fi.fi_id <- id;
      match Protocol.op_of_json j with
      | exception J.Parse_error msg ->
        locked t (fun () -> t.errors <- t.errors + 1);
        err "error";
        ("invalid", envelope ?id ~status:"error" [ ("error", J.Str msg) ])
      | exception Protocol.Version_mismatch got ->
        locked t (fun () -> t.errors <- t.errors + 1);
        err "unsupported_protocol";
        ( "invalid",
          envelope ?id ~status:"unsupported_protocol"
            [ ("error", J.Str "protocol version mismatch");
              ("expected", J.Int Protocol.proto_version);
              ("got", J.Int got) ] )
      | Protocol.Ping ->
        ("ping", envelope ?id ~status:"ok" [ ("op", J.Str "ping") ])
      | Protocol.Stats ->
        ( "stats",
          envelope ?id ~status:"ok"
            [ ("op", J.Str "stats"); ("result", stats_json t) ] )
      | Protocol.Metrics ->
        ( "metrics",
          envelope ?id ~status:"ok"
            [ ("op", J.Str "metrics");
              ("exposition", J.Str (Metrics.to_prometheus ()));
              ("result", Metrics.to_json ()) ] )
      | Protocol.Trace ->
        ( "trace",
          envelope ?id ~status:"ok"
            [ ("op", J.Str "trace");
              ("process", J.Str (shard_name t));
              ("result", Span.export ()) ] )
      | Protocol.Flight ->
        ( "flight",
          envelope ?id ~status:"ok"
            [ ("op", J.Str "flight"); ("result", Flight.to_json_all ()) ] )
      | Protocol.Fetch key -> (
        locked t (fun () -> t.fetches <- t.fetches + 1);
        match Cache.peek t.cache key with
        | Some payload ->
          locked t (fun () -> t.fetch_hits <- t.fetch_hits + 1);
          ( "fetch",
            envelope ?id ~status:"ok"
              [ ("op", J.Str "fetch");
                ("found", J.Bool true);
                ("result", J.of_string payload) ] )
        | None ->
          ( "fetch",
            envelope ?id ~status:"ok"
              [ ("op", J.Str "fetch"); ("found", J.Bool false) ] ))
      | Protocol.Put (key, result) ->
        Cache.store t.cache key (J.to_string ~indent:false result);
        locked t (fun () -> t.puts <- t.puts + 1);
        ("put", envelope ?id ~status:"ok" [ ("op", J.Str "put") ])
      | Protocol.Profile (preq, delta) ->
        (* Accumulate the observation delta under the program's identity
           and answer with the bumped epoch — the client's receipt that
           subsequent VRS answers will (eventually) reflect it. *)
        let rkey = Protocol.route_key preq in
        fi.fi_key <- rkey;
        let epoch = Profile_store.push t.profiles rkey delta in
        ( "profile",
          envelope ?id ~status:"ok"
            [ ("op", J.Str "profile"); ("epoch", J.Int epoch) ] )
      | Protocol.Analyze req ->
        fi.fi_trace <- req.Protocol.trace_id;
        (* Install the wire trace context around the request span: the
           span then records trace_id/parent_span and reparents the
           ambient context for everything underneath, and the flow-in
           event closes the arrow from the caller's flow-out — both ends
           derive the same id from wire data alone. *)
        let ctx =
          match req.Protocol.trace_id with
          | Some tr when Span.enabled () ->
            Some
              { Span.trace = tr;
                parent = Option.value ~default:0 req.Protocol.parent_span }
          | _ -> None
        in
        let serve () =
          Span.with_ ~name:"request"
            ~args:[ ("op", J.Str "analyze") ]
            (fun () ->
              (match (ctx, req.Protocol.parent_span) with
              | Some c, Some parent ->
                Span.flow_in ~id:(Span.wire_flow_id ~trace:c.Span.trace ~parent)
              | _ -> ());
              handle_analyze t ~t0 ~fi req)
        in
        ( "analyze",
          match ctx with
          | None -> serve ()
          | Some _ -> Span.with_context ctx serve ))
  in
  let dt = Clock.since t0 in
  Flight.record
    { Flight.f_id = fi.fi_id;
      f_trace = fi.fi_trace;
      f_key = fi.fi_key;
      f_shard = shard_name t;
      f_op = op_name;
      f_queue_ms = fi.fi_queue_ms;
      f_hedged = false;
      f_cache = fi.fi_cache;
      f_outcome = fi.fi_status;
      f_ms = dt *. 1000.0;
      f_ts = Unix.gettimeofday () };
  if Metrics.enabled () then begin
    (match List.assoc_opt op_name m_requests with
    | Some c -> Metrics.incr c
    | None -> ());
    match List.assoc_opt op_name m_latency with
    | Some h -> Metrics.observe h dt
    | None -> ()
  end;
  Log.debug "request"
    ~fields:[ ("op", J.Str op_name); ("seconds", J.Float dt) ];
  response

(* --- lifecycle ------------------------------------------------------------- *)

let stop t = Net.stop t.listener

let install_sigint t =
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop t))

(* SIGUSR1 dumps the flight recorder as NDJSON to stderr: the incident
   tool for "what were the last few thousand requests?" without
   restarting or reconfiguring anything. *)
let install_sigusr1 () =
  try
    Sys.set_signal Sys.sigusr1
      (Sys.Signal_handle
         (fun _ ->
           Flight.dump stderr;
           flush stderr))
  with Invalid_argument _ -> ()

let run t =
  install_sigusr1 ();
  Log.info "ogc-serve: listening"
    ~fields:
      [ ("version", J.Str Version.version);
        ("addr", J.Str (Net.addr_string t.cfg.addr));
        ("jobs", J.Int (Pool.size t.pool));
        ("queue_limit", J.Int t.cfg.queue_limit) ];
  (* Graceful drain: stop accepting, nudge idle connections to EOF (a
     connection mid-request still writes its response first — its read
     side only reports EOF on the next request), finish every in-flight
     analysis, then retire the worker domains. *)
  Net.run t.listener (handle_line t) ~on_drain:(fun () ->
      Log.info "ogc-serve: draining"
        ~fields:[ ("pending", J.Int (Atomic.get t.pending)) ]);
  Pool.shutdown t.pool;
  Log.info "ogc-serve: stopped"
    ~fields:
      [ ("uptime_s", J.Float (Clock.since t.started));
        ("requests", J.Int (locked t (fun () -> t.requests))) ]
