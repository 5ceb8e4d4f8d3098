module J = Ogc_json.Json
module Pool = Ogc_exec.Pool
module Metrics = Ogc_obs.Metrics
module Span = Ogc_obs.Span
module Log = Ogc_obs.Log
module Clock = Ogc_obs.Clock
module Net = Ogc_net.Net
module Lru = Ogc_exec.Lru
module Store = Ogc_pass.Pass.Store

exception Deadline_exceeded

(* Per-op request counters and latency histograms; "invalid" covers
   lines that never parsed far enough to name an op. *)
let known_ops =
  [ "analyze"; "stats"; "ping"; "metrics"; "put"; "trace"; "flight";
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
  inject_slow_ms : float option; (* fault injection: delay every analyze *)
}

let default_config addr =
  { addr;
    jobs = None;
    queue_limit = 64;
    cache_capacity = 256;
    cache_dir = None;
    shard_id = None;
    inject_slow_ms = None }

type t = {
  cfg : config;
  listener : Net.listener;
  front : Front.t;
  pool : Pool.t;
  cache : Cache.t;
  passes : Store.t;
      (* per-pass artifact tier under the whole-result cache: a request
         that misses [cache] still reuses the chain-prefix artifacts
         (VRP fixpoint, training profiles) computed by earlier requests *)
  profiles : Profile_store.t;
      (* accumulated execution profiles, one per program (route_key) *)
  pending : int Atomic.t;  (* analyses queued or running *)
  started : float;
  m : Mutex.t;  (* guards the mutable fields below *)
  served : (string, int * string) Lru.t;
      (* epoch-free cache key -> (epoch, epoch-salted key) of the newest
         artifact computed for that request shape: where the
         stale-while-revalidate path finds the previous-epoch answer.
         Advisory (a dropped entry just misses the stale path), bounded
         at 4 x cache_capacity. *)
  respec_inflight : (string, unit) Hashtbl.t;
      (* epoch-salted keys with a background re-specialization queued or
         running — dedup so a burst of stale hits schedules one *)
  mutable analyses : int;  (* cache misses actually computed *)
  mutable rejected : int;  (* overload replies *)
  mutable expired : int;  (* deadline replies *)
  mutable puts : int;  (* replication put ops accepted *)
  mutable stale_served : int;  (* previous-epoch answers served *)
  mutable respecs : int;  (* background re-specializations completed *)
  mutable respecs_dropped : int;  (* re-specializations the queue refused *)
}

(* The pass store always holds one whole chain: the longest that
   [Protocol.build] runs is VRS, five passes.  A smaller store never
   hits, because each run evicts its own first snapshot before the next
   run looks it up. *)
let longest_chain = 5

(* --- socket setup --------------------------------------------------------- *)

let create cfg =
  let listener = Net.listen ~name:"ogc-serve" cfg.addr in
  let name =
    match cfg.shard_id with Some i -> "shard-" ^ i | None -> "serve"
  in
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
    front = Front.create ~name;
    pool = Pool.create ?jobs:cfg.jobs ();
    cache = Cache.create ~capacity:cfg.cache_capacity ?dir:cache_dir ();
    passes = Store.create ~capacity:(max longest_chain cfg.cache_capacity) ();
    profiles = Profile_store.create ~capacity:cfg.cache_capacity ();
    pending = Atomic.make 0;
    started = Clock.now ();
    m = Mutex.create ();
    served = Lru.create (4 * cfg.cache_capacity);
    respec_inflight = Hashtbl.create 8;
    analyses = 0;
    rejected = 0;
    expired = 0;
    puts = 0;
    stale_served = 0;
    respecs = 0;
    respecs_dropped = 0 }

(* --- stats ----------------------------------------------------------------- *)

let stats_json t =
  let c = Cache.stats t.cache in
  let ( analyses, rejected, expired, puts, stale_served, respecs, dropped,
        (indexed, index_evictions) ) =
    Mutex.protect t.m (fun () ->
        ( t.analyses, t.rejected, t.expired, t.puts, t.stale_served,
          t.respecs, t.respecs_dropped,
          (Lru.length t.served, Lru.evictions t.served) ))
  in
  let lookups = c.Cache.hits + c.Cache.misses in
  J.Obj
    ((match t.cfg.shard_id with
     | Some id -> [ ("shard_id", J.Str id) ]
     | None -> [])
    @ [ ("uptime_s", J.Float (Clock.since t.started));
      ("requests", J.Int (Front.requests t.front));
      ("analyses", J.Int analyses);
      ("errors", J.Int (Front.errors t.front));
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
         [ ("artifacts", J.Int (Store.entries t.passes));
           ("evictions", J.Int (Store.evictions t.passes));
           ("by_pass",
            J.Obj
              (List.map
                 (fun (n, h, m) ->
                   (n, J.Obj [ ("hits", J.Int h); ("misses", J.Int m) ]))
                 (Store.pass_stats t.passes))) ]);
      ("replication", J.Obj [ ("puts", J.Int puts) ]);
      ("profile",
       (let programs, pushes, evictions = Profile_store.stats t.profiles in
        J.Obj
          [ ("programs", J.Int programs);
            ("pushes", J.Int pushes);
            ("evictions", J.Int evictions);
            ("stale_served", J.Int stale_served);
            ("respecializations", J.Int respecs);
            ("respecializations_dropped", J.Int dropped);
            ("stale_index",
             J.Obj
               [ ("entries", J.Int indexed);
                 ("evictions", J.Int index_evictions) ]) ]));
      ("latency_ms", Front.latency_json t.front);
      (* Per-op second-denominated histograms from the metrics registry;
         all-zero until metrics are enabled. *)
      ("latency_by_op",
       J.Obj (List.map (fun (o, h) -> (o, Metrics.histogram_json h)) m_latency));
      ("pool",
       J.Obj
         [ ("jobs", J.Int (Pool.size t.pool));
           ("pending", J.Int (Atomic.get t.pending));
           ("queue_limit", J.Int t.cfg.queue_limit) ]) ])

(* --- request handling ------------------------------------------------------ *)

(* Caller holds [t.m].  Remember [key] as the newest artifact of
   [base_key]'s request shape unless a newer epoch is already noted. *)
let note_served_locked t ~base_key ~epoch ~key =
  match Lru.find t.served base_key with
  | Some (e, _) when e >= epoch -> ()
  | _ -> ignore (Lru.add t.served base_key (epoch, key))

(* One background re-specialization per (request shape, epoch),
   admission-gated by the same bounded queue as foreground analyses;
   when the queue is full the respec is dropped, counted and logged — the
   next stale hit retries.  The task records a synthetic "respec" flight
   entry so the recorder shows background work next to the requests that
   rode on stale answers while it ran. *)
let schedule_respec t ~(req : Protocol.request) ~rkey ~wire ~epoch ~key
    ~base_key =
  let fresh =
    Mutex.protect t.m (fun () ->
        if Hashtbl.mem t.respec_inflight key then false
        else begin
          Hashtbl.replace t.respec_inflight key ();
          true
        end)
  in
  if fresh then begin
    if Atomic.fetch_and_add t.pending 1 >= t.cfg.queue_limit then begin
      Atomic.decr t.pending;
      Mutex.protect t.m (fun () ->
          Hashtbl.remove t.respec_inflight key;
          t.respecs_dropped <- t.respecs_dropped + 1);
      Log.warn "ogc-serve: respecialization dropped"
        ~fields:
          [ ("route_key", J.Str rkey);
            ("epoch", J.Int epoch);
            ("queue_limit", J.Int t.cfg.queue_limit) ]
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
                 Mutex.protect t.m (fun () ->
                     t.respecs <- t.respecs + 1;
                     note_served_locked t ~base_key ~epoch ~key);
                 "ok"
               with _ ->
                 Front.count_error t.front;
                 "error"
             in
             Atomic.decr t.pending;
             Mutex.protect t.m (fun () ->
                 Hashtbl.remove t.respec_inflight key);
             Front.record t.front ~op:"respec" ?id:req.Protocol.id
               { Front.key = rkey;
                 trace = None;
                 queue_ms = (t1 -. submitted) *. 1000.0;
                 hedged = false;
                 cache = "miss" }
               ~outcome ~ms:(Clock.since t1 *. 1000.0);
             if Metrics.enabled () then
               Option.iter Metrics.incr (List.assoc_opt "respec" m_requests)))
    end
  end

(* Stale-while-revalidate: a profile push re-addressed this request (its
   epoch joined the cache key), so the fresh key misses — answer from
   the newest previous-epoch artifact immediately and re-specialize in
   the background.  [None] means no usable stale answer: compute
   synchronously as usual. *)
let serve_stale t (r : Front.request) ~(req : Protocol.request) ~rkey ~wire
    ~epoch ~key ~base_key =
  if epoch = 0 then None
  else
    match
      Mutex.protect t.m (fun () ->
          match Lru.find t.served base_key with
          | Some (e_old, old_key) when e_old < epoch -> Some (e_old, old_key)
          | _ -> None)
    with
    | None -> None
    | Some (e_old, old_key) -> (
      match Cache.find_uncounted t.cache old_key with
      | None -> None
      | Some payload ->
        schedule_respec t ~req ~rkey ~wire ~epoch ~key ~base_key;
        ignore (Front.record_latency t.front r.Front.arrived);
        r.Front.facts.cache <- "stale";
        Mutex.protect t.m (fun () -> t.stale_served <- t.stale_served + 1);
        Some
          (Front.envelope ?id:req.Protocol.id ~status:"ok"
             [ ("cache", J.Str "stale");
               ("profile_epoch", J.Int epoch);
               ("served_epoch", J.Int e_old);
               ("result", J.of_string payload) ]))

let handle_analyze t (r : Front.request) (req : Protocol.request) =
  (match t.cfg.inject_slow_ms with
  | Some ms when ms > 0.0 -> Thread.delay (ms /. 1000.0)
  | _ -> ());
  let id = req.Protocol.id in
  let facts = r.Front.facts in
  let rkey = Protocol.route_key req in
  facts.key <- rkey;
  (* One consistent snapshot of the program's accumulated profile: the
     epoch that salts the key is the epoch of the very value the chain
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
      Mutex.protect t.m (fun () -> note_served_locked t ~base_key ~epoch ~key)
  in
  let expired () =
    Mutex.protect t.m (fun () -> t.expired <- t.expired + 1);
    Front.envelope ?id ~status:"deadline_exceeded"
      [ ("error", J.Str "deadline expired before the analysis started") ]
  in
  match Span.with_ ~name:"cache_lookup" (fun () -> Cache.find t.cache key) with
  | Some payload ->
    ignore (Front.record_latency t.front r.Front.arrived);
    facts.cache <- "hit";
    note_served ();
    Front.envelope ?id ~status:"ok"
      [ ("cache", J.Str "hit"); ("result", J.of_string payload) ]
  | None ->
    match serve_stale t r ~req ~rkey ~wire ~epoch ~key ~base_key with
    | Some response -> response
    | None ->
    if Option.fold ~none:false ~some:(fun ms -> ms <= 0) req.Protocol.deadline_ms
    then expired ()
    else if Atomic.fetch_and_add t.pending 1 >= t.cfg.queue_limit then begin
      (* Bounded queue: shed load instead of accepting unbounded work. *)
      Atomic.decr t.pending;
      Mutex.protect t.m (fun () -> t.rejected <- t.rejected + 1);
      Front.envelope ?id ~status:"overloaded"
        [ ("error", J.Str "analysis queue is full, retry later");
          ("queue_limit", J.Int t.cfg.queue_limit) ]
    end
    else begin
      let deadline =
        Option.map (fun ms -> r.Front.arrived +. (float_of_int ms /. 1000.0))
          req.Protocol.deadline_ms
      in
      let submitted = Clock.now () in
      let ticket =
        Pool.submit t.pool (fun () ->
            let started = Clock.now () in
            facts.queue_ms <- (started -. submitted) *. 1000.0;
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
      (* An analysis that raises anything but the deadline is answered
         by the front's error reply. *)
      match
        Fun.protect
          ~finally:(fun () -> Atomic.decr t.pending)
          (fun () -> Pool.await ticket)
      with
      | exception Deadline_exceeded -> expired ()
      | payload ->
        Cache.store t.cache key payload;
        note_served ();
        ignore (Front.record_latency t.front r.Front.arrived);
        Mutex.protect t.m (fun () -> t.analyses <- t.analyses + 1);
        facts.cache <- "miss";
        Front.envelope ?id ~status:"ok"
          [ ("cache", J.Str "miss"); ("result", J.of_string payload) ]
    end

(* The ops the front routes here: analyses, profile pushes and replica
   puts. *)
let route t (r : Front.request) =
  let id = r.Front.id in
  match r.Front.op with
  | Protocol.Put (key, result) ->
    Cache.store t.cache key (J.to_string ~indent:false result);
    Mutex.protect t.m (fun () -> t.puts <- t.puts + 1);
    Front.envelope ?id ~status:"ok" [ ("op", J.Str "put") ]
  | Protocol.Profile (preq, delta) ->
    (* Accumulate the observation delta under the program's identity
       and answer with the bumped epoch — the client's receipt that
       subsequent VRS answers will (eventually) reflect it. *)
    let rkey = Protocol.route_key preq in
    r.Front.facts.key <- rkey;
    let epoch = Profile_store.push t.profiles rkey delta in
    Front.envelope ?id ~status:"ok"
      [ ("op", J.Str "profile"); ("epoch", J.Int epoch) ]
  | Protocol.Analyze req -> (
    r.Front.facts.trace <- req.Protocol.trace_id;
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
          handle_analyze t r req)
    in
    match ctx with None -> serve () | Some _ -> Span.with_context ctx serve)
  | Protocol.(Ping | Stats | Metrics | Trace | Flight) ->
    (* answered by the front *)
    assert false

(* The server's own view of each request line: per-op counters and
   latency histograms, and a debug log line. *)
let finish op dt =
  if Metrics.enabled () then begin
    Option.iter Metrics.incr (List.assoc_opt op m_requests);
    Option.iter (fun h -> Metrics.observe h dt) (List.assoc_opt op m_latency)
  end;
  Log.debug "request" ~fields:[ ("op", J.Str op); ("seconds", J.Float dt) ]

let handle_line t line =
  Front.handle_line t.front
    ~stats:(fun () -> stats_json t)
    ~trace:Span.export ~finish (route t) line

(* --- lifecycle ------------------------------------------------------------- *)

let stop t = Net.stop t.listener

let install_sigint t =
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop t))

let run t =
  Front.install_sigusr1 ();
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
        ("requests", J.Int (Front.requests t.front)) ]
