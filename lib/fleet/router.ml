module J = Ogc_json.Json
module Server = Ogc_server.Server
module Protocol = Ogc_server.Protocol
module Version = Ogc_server.Version
module Metrics = Ogc_obs.Metrics
module Log = Ogc_obs.Log
module Span = Ogc_obs.Span
module Flight = Ogc_obs.Flight
module Clock = Ogc_obs.Clock
module Net = Ogc_net.Net

type target = { t_name : string; t_addr : Net.addr }

type config = {
  addr : Net.addr;
  shards : target list;
  pool_size : int;
  max_waiters : int;
  replicas : int;
  promote_after : int;
  hedge_ms : float option;
  request_timeout_ms : int;
}

let default_config ~addr ~shards =
  { addr;
    shards;
    pool_size = 8;
    max_waiters = 64;
    replicas = 2;
    promote_after = 3;
    hedge_ms = None;
    request_timeout_ms = 30_000 }

(* --- bounded per-shard connection pools ------------------------------------ *)

exception Backpressure

module Conns = struct
  type t = {
    addr : Net.addr;
    size : int;
    max_waiters : int;
    m : Mutex.t;
    cond : Condition.t;
    mutable idle : Net.conn list;
    mutable live : int;  (* connections opened and not yet destroyed *)
    mutable waiters : int;
  }

  let create ~size ~max_waiters addr =
    { addr;
      size = max 1 size;
      max_waiters = max 0 max_waiters;
      m = Mutex.create ();
      cond = Condition.create ();
      idle = [];
      live = 0;
      waiters = 0 }

  let acquire t =
    Mutex.lock t.m;
    let rec get () =
      match t.idle with
      | c :: rest ->
        t.idle <- rest;
        Mutex.unlock t.m;
        c
      | [] ->
        if t.live < t.size then begin
          t.live <- t.live + 1;
          Mutex.unlock t.m;
          (* Connect outside the lock; a slow handshake must not block
             other acquires that could use an idle connection.  The
             connect timeout keeps a dead TCP shard at milliseconds. *)
          try Net.connect t.addr
          with e ->
            Mutex.lock t.m;
            t.live <- t.live - 1;
            Condition.signal t.cond;
            Mutex.unlock t.m;
            raise e
        end
        else if t.waiters >= t.max_waiters then begin
          Mutex.unlock t.m;
          raise Backpressure
        end
        else begin
          t.waiters <- t.waiters + 1;
          Condition.wait t.cond t.m;
          t.waiters <- t.waiters - 1;
          get ()
        end
    in
    get ()

  let release t c =
    Mutex.lock t.m;
    t.idle <- c :: t.idle;
    Condition.signal t.cond;
    Mutex.unlock t.m

  (* For connections in an unknown protocol state (I/O error mid
     request): never return them to the pool. *)
  let destroy t c =
    Net.close c;
    Mutex.lock t.m;
    t.live <- t.live - 1;
    Condition.signal t.cond;
    Mutex.unlock t.m

  let close_idle t =
    Mutex.lock t.m;
    let idle = t.idle in
    t.idle <- [];
    t.live <- t.live - List.length idle;
    Mutex.unlock t.m;
    List.iter Net.close idle
end

(* --- the router ------------------------------------------------------------ *)

type shard = {
  name : string;
  s_addr : Net.addr;
  s_conns : Conns.t;
  mutable down_until : float;  (* cooldown after a failure; 0 = healthy *)
  m_requests : Metrics.counter;
  m_hedges : Metrics.counter;
  m_failovers : Metrics.counter;
  m_puts : Metrics.counter;
  m_put_failures : Metrics.counter;
  m_seconds : Metrics.histogram;
}

let lat_window = 1024
let down_cooldown = 1.0 (* seconds a failed shard is deprioritized *)

type t = {
  cfg : config;
  ring : Ring.t;
  shard_tbl : (string * shard) list;  (* ring name -> shard *)
  listener : Net.listener;
  started : float;
  m : Mutex.t;  (* guards the mutable fields below *)
  mutable requests : int;
  mutable routed : int;
  mutable hedged : int;
  mutable hedge_wins : int;
  mutable failovers : int;
  mutable errors : int;
  mutable unavailable : int;
  mutable promotions : int;
  hits : (string, int) Hashtbl.t;  (* result key -> request count *)
  promoted : (string, unit) Hashtbl.t;
  latencies : float array;  (* ring of recent request latencies, ms *)
  mutable lat_n : int;
  mutable hedge_threshold : float;  (* seconds *)
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let shard_of t name = List.assoc name t.shard_tbl

let create cfg =
  if cfg.shards = [] then invalid_arg "Router.create: no shards";
  let names = List.map (fun s -> s.t_name) cfg.shards in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Router.create: duplicate shard names";
  let ring = Ring.create names in
  let shard_tbl =
    List.map
      (fun s ->
        ( s.t_name,
          { name = s.t_name;
            s_addr = s.t_addr;
            s_conns =
              Conns.create ~size:cfg.pool_size ~max_waiters:cfg.max_waiters
                s.t_addr;
            down_until = 0.0;
            m_requests =
              Metrics.counter "ogc_router_shard_requests_total"
                ~labels:[ ("shard", s.t_name) ];
            m_hedges =
              Metrics.counter "ogc_router_shard_hedges_total"
                ~labels:[ ("shard", s.t_name) ];
            m_failovers =
              Metrics.counter "ogc_router_shard_failovers_total"
                ~labels:[ ("shard", s.t_name) ];
            m_puts =
              Metrics.counter "ogc_router_shard_replica_puts_total"
                ~labels:[ ("shard", s.t_name) ];
            m_put_failures =
              Metrics.counter "ogc_router_shard_replica_put_failures_total"
                ~labels:[ ("shard", s.t_name) ];
            m_seconds =
              Metrics.histogram "ogc_router_shard_seconds"
                ~labels:[ ("shard", s.t_name) ] } ))
      cfg.shards
  in
  { cfg;
    ring;
    shard_tbl;
    listener = Net.listen ~name:"ogc-router" cfg.addr;
    started = Clock.now ();
    m = Mutex.create ();
    requests = 0;
    routed = 0;
    hedged = 0;
    hedge_wins = 0;
    failovers = 0;
    errors = 0;
    unavailable = 0;
    promotions = 0;
    hits = Hashtbl.create 256;
    promoted = Hashtbl.create 64;
    latencies = Array.make lat_window 0.0;
    lat_n = 0;
    hedge_threshold = 0.025 }

(* --- adaptive hedge threshold ---------------------------------------------- *)

let percentile = Metrics.percentile_sorted

(* Hedge at ~2x a recent p95: rare stragglers trigger a second copy,
   the common case never pays for one.  Clamped so a pathological
   window can neither hedge every request nor disable hedging. *)
let recompute_threshold t =
  match t.cfg.hedge_ms with
  | Some ms -> t.hedge_threshold <- ms /. 1000.0
  | None ->
    let lats = Array.sub t.latencies 0 (min t.lat_n lat_window) in
    Array.sort compare lats;
    let p95_s = percentile lats 0.95 /. 1000.0 in
    let budget = float_of_int t.cfg.request_timeout_ms /. 1000.0 in
    t.hedge_threshold <- Float.min (budget /. 4.0) (Float.max 0.002 (2.0 *. p95_s))

let record_latency t ms =
  locked t (fun () ->
      t.latencies.(t.lat_n mod lat_window) <- ms;
      t.lat_n <- t.lat_n + 1;
      if t.lat_n mod 64 = 0 then recompute_threshold t)

(* --- candidate selection --------------------------------------------------- *)

(* Ring successors of the route key, healthy shards first (ring order
   preserved within each class — if everything is down we still try, in
   order).  Promoted hot keys rotate their entry point across the first
   [replicas] successors so a popular analysis front is spread over its
   whole replica set instead of hammering the primary. *)
let candidates t rkey ~hits ~promoted =
  let names = Ring.successors t.ring rkey (List.length t.cfg.shards) in
  let names =
    if promoted && t.cfg.replicas > 1 then begin
      let r = min t.cfg.replicas (List.length names) in
      let rec split n acc = function
        | rest when n = 0 -> (List.rev acc, rest)
        | x :: rest -> split (n - 1) (x :: acc) rest
        | [] -> (List.rev acc, [])
      in
      let replicas, rest = split r [] names in
      let k = hits mod r in
      let rot = List.filteri (fun i _ -> i >= k) replicas
                @ List.filteri (fun i _ -> i < k) replicas in
      rot @ rest
    end
    else names
  in
  let now = Clock.now () in
  let shards = List.map (shard_of t) names in
  let up, down = List.partition (fun s -> s.down_until <= now) shards in
  up @ down

(* --- request forwarding ---------------------------------------------------- *)

let envelope ?id ~status extra =
  J.to_string ~indent:false
    (J.Obj
       (("version", J.Str Version.version)
        :: (match id with Some s -> [ ("id", J.Str s) ] | None -> [])
        @ (("status", J.Str status) :: extra)))

(* Outcome cell shared between the request thread and its attempts.
   First response wins; [launched]/[errored] let the request thread
   distinguish "still computing" from "every attempt failed". *)
type cell = {
  cm : Mutex.t;
  mutable response : (int * string) option;  (* attempt index, line *)
  mutable launched : int;
  mutable errored : int;
}

(* Rewrite a request's trace members for one shard attempt: each attempt
   is its own child span, so each carries its own [parent_span]. *)
let with_trace_members j ~trace ~parent =
  match j with
  | J.Obj kvs ->
    let kvs =
      List.filter (fun (k, _) -> k <> "trace_id" && k <> "parent_span") kvs
    in
    J.Obj (kvs @ [ ("trace_id", J.Str trace); ("parent_span", J.Int parent) ])
  | j -> j

(* One attempt = one shard round trip on a pooled connection, run on its
   own thread so the request thread can hedge past it.  An abandoned
   attempt still reads its response line before releasing the
   connection — returning a connection with an unread response would
   desync every later request on it.

   [traced] carries the parsed request and the router-side trace context
   (captured inside the router's request span): the attempt then opens a
   child span on its own thread, stamps the wire request with its own
   span id as [parent_span], and emits the flow-out half of the
   cross-process arrow — the shard computes the same flow id from the
   wire members alone. *)
let launch_attempt cell idx sh ~traced line why =
  Mutex.lock cell.cm;
  cell.launched <- cell.launched + 1;
  Mutex.unlock cell.cm;
  let roundtrip line =
    let record_error () =
      sh.down_until <- Clock.now () +. down_cooldown;
      Mutex.lock cell.cm;
      cell.errored <- cell.errored + 1;
      Mutex.unlock cell.cm
    in
    match Conns.acquire sh.s_conns with
    | exception _ -> record_error ()
    | c -> (
      if Metrics.enabled () then Metrics.incr sh.m_requests;
      let t0 = Clock.now () in
      match Net.call c line with
      | resp ->
        Conns.release sh.s_conns c;
        Metrics.observe sh.m_seconds (Clock.since t0);
        sh.down_until <- 0.0;
        Mutex.lock cell.cm;
        if cell.response = None then cell.response <- Some (idx, resp);
        Mutex.unlock cell.cm
      | exception _ ->
        Conns.destroy sh.s_conns c;
        record_error ())
  in
  let body () =
    match traced with
    | None -> roundtrip line
    | Some (j, ctx) ->
      Span.with_context (Some ctx) (fun () ->
          Span.with_ ~name:"attempt"
            ~args:[ ("shard", J.Str sh.name); ("why", J.Str why) ]
            (fun () ->
              (* Inside [with_] the ambient parent is this attempt span's
                 own id — exactly what the shard must nest under. *)
              let asid =
                match Span.current () with
                | Some c -> c.Span.parent
                | None -> 0
              in
              let trace = ctx.Span.trace in
              Span.flow_out ~id:(Span.wire_flow_id ~trace ~parent:asid);
              roundtrip
                (J.to_string ~indent:false
                   (with_trace_members j ~trace ~parent:asid))))
  in
  ignore (Thread.create body ())

(* Forward [line] along [cands], hedging once past a straggler and
   failing over past errors, until a response, exhaustion, or the
   request budget runs out.  Returns the response line and whether a
   hedge was launched (for the flight record). *)
let forward t ~t0 ~id ~hedge ?traced line cands =
  let cell =
    { cm = Mutex.create (); response = None; launched = 0; errored = 0 }
  in
  let deadline = t0 +. (float_of_int t.cfg.request_timeout_ms /. 1000.0) in
  let remaining = ref cands in
  let attempt_no = ref 0 in
  let did_hedge = ref false in
  let launch why =
    match !remaining with
    | [] -> false
    | sh :: rest ->
      remaining := rest;
      let why_name =
        match why with
        | `Primary -> "primary"
        | `Hedge -> "hedge"
        | `Failover -> "failover"
      in
      (match why with
      | `Primary -> ()
      | `Hedge ->
        did_hedge := true;
        locked t (fun () -> t.hedged <- t.hedged + 1);
        if Metrics.enabled () then Metrics.incr sh.m_hedges
      | `Failover ->
        locked t (fun () -> t.failovers <- t.failovers + 1);
        if Metrics.enabled () then Metrics.incr sh.m_failovers);
      launch_attempt cell !attempt_no sh ~traced line why_name;
      incr attempt_no;
      true
  in
  ignore (launch `Primary);
  let hedge_at = ref (t0 +. t.hedge_threshold) in
  let give_up () =
    locked t (fun () ->
        t.unavailable <- t.unavailable + 1;
        t.errors <- t.errors + 1);
    envelope ?id ~status:"unavailable"
      [ ("error", J.Str "no shard answered within the request budget") ]
  in
  let rec wait () =
    let response, launched, errored =
      Mutex.lock cell.cm;
      let r = (cell.response, cell.launched, cell.errored) in
      Mutex.unlock cell.cm;
      r
    in
    match response with
    | Some (idx, resp) ->
      if idx > 0 then locked t (fun () -> t.hedge_wins <- t.hedge_wins + 1);
      resp
    | None ->
      let now = Clock.now () in
      if errored >= launched then
        (* Every launched attempt failed: fail over immediately. *)
        if launch `Failover then begin
          hedge_at := now +. t.hedge_threshold;
          wait ()
        end
        else give_up ()
      else if now >= deadline then give_up ()
      else begin
        if hedge && now >= !hedge_at && launched - errored = 1 then begin
          (* One hedge per in-flight attempt; a straggler past the
             threshold gets exactly one shadow copy. *)
          ignore (launch `Hedge);
          hedge_at := deadline
        end;
        (* OCaml's Condition has no timed wait; a sub-millisecond poll
           keeps hedge latency overhead invisible next to an analysis. *)
        Thread.delay 0.0005;
        wait ()
      end
  in
  let resp = wait () in
  (resp, !did_hedge)

(* --- hot-key promotion ----------------------------------------------------- *)

let hits_cap = 8192

let bump_hits t key =
  locked t (fun () ->
      if Hashtbl.length t.hits >= hits_cap then Hashtbl.reset t.hits;
      let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.hits key) in
      Hashtbl.replace t.hits key n;
      (n, Hashtbl.mem t.promoted key))

(* Push a hot result to the replica shards, off the request path.  A
   failed put is counted and logged, not retried: replication is a
   latency optimization, the primary still owns the result. *)
let replicate t ckey rkey result =
  let line =
    J.to_string ~indent:false
      (J.Obj
         [ ("proto", J.Int Protocol.proto_version);
           ("op", J.Str "put");
           ("key", J.Str ckey);
           ("result", result) ])
  in
  let targets =
    match Ring.successors t.ring rkey t.cfg.replicas with
    | [] -> []
    | _primary :: replicas -> replicas
  in
  let failed sh error =
    if Metrics.enabled () then Metrics.incr sh.m_put_failures;
    Log.warn "ogc-router: replica put failed"
      ~fields:[ ("shard", J.Str sh.name); ("error", J.Str error) ]
  in
  List.iter
    (fun name ->
      let sh = shard_of t name in
      match Conns.acquire sh.s_conns with
      | exception e -> failed sh (Printexc.to_string e)
      | c -> (
        match Net.call c line with
        | resp -> (
          Conns.release sh.s_conns c;
          match J.member "status" (J.of_string resp) with
          | J.Str "ok" -> if Metrics.enabled () then Metrics.incr sh.m_puts
          | _ | (exception J.Parse_error _) -> failed sh resp)
        | exception e ->
          Conns.destroy sh.s_conns c;
          failed sh (Printexc.to_string e)))
    targets

let maybe_promote t ckey rkey ~hits resp =
  if
    t.cfg.replicas > 1 && hits >= t.cfg.promote_after
    && not (locked t (fun () -> Hashtbl.mem t.promoted ckey))
  then begin
    match J.of_string resp with
    | exception J.Parse_error _ -> ()
    | j -> (
      match (J.member "status" j, J.member "result" j) with
      | J.Str "ok", (J.Obj _ as result) ->
        locked t (fun () ->
            Hashtbl.replace t.promoted ckey ();
            t.promotions <- t.promotions + 1);
        ignore (Thread.create (fun () -> replicate t ckey rkey result) ())
      | _ -> ())
  end

(* --- fleet trace assembly --------------------------------------------------- *)

(* Pull one shard's span rings over its own protocol ([op = "trace"]).
   A dead or pre-trace shard is skipped — a fleet trace with a hole
   beats no trace during the exact incidents traces are for. *)
let pull_shard_trace sh =
  match Conns.acquire sh.s_conns with
  | exception _ -> None
  | c -> (
    let req =
      J.to_string ~indent:false
        (J.Obj
           [ ("proto", J.Int Protocol.proto_version); ("op", J.Str "trace") ])
    in
    match Net.call c req with
    | exception _ ->
      Conns.destroy sh.s_conns c;
      None
    | resp -> (
      Conns.release sh.s_conns c;
      match J.of_string resp with
      | exception J.Parse_error _ -> None
      | j -> (
        match (J.member "status" j, J.member "result" j) with
        | J.Str "ok", (J.Obj _ as doc) ->
          (* Label the track with the router's name for the shard — the
             fleet-topology name the operator configured — rather than
             the shard's self-reported one. *)
          Some (sh.name, doc)
        | _ -> None)))

(* Every process's rings, router first: the payload [ogc trace --fleet]
   merges with {!Ogc_obs.Span.merge_processes}. *)
let fleet_trace_json t =
  let shards = List.filter_map (fun (_, sh) -> pull_shard_trace sh) t.shard_tbl in
  J.Obj
    [ ("processes",
       J.Arr
         (List.map
            (fun (name, doc) ->
              J.Obj [ ("name", J.Str name); ("trace", doc) ])
            (("router", Span.export ()) :: shards))) ]

(* --- request handling ------------------------------------------------------ *)

(* Router-minted trace ids: unique across restarts and co-located
   processes without any coordination.  The entropy is a wall timestamp,
   not a {!Clock} reading: a restarted router must not mint its
   predecessor's ids. *)
let mint_trace =
  let counter = Atomic.make 0 in
  fun () ->
    let entropy = Unix.gettimeofday () in
    Digest.to_hex
      (Digest.string
         (Printf.sprintf "%d/%d/%.6f" (Unix.getpid ())
            (Atomic.fetch_and_add counter 1)
            entropy))

(* The response status without a full JSON parse: the envelope always
   renders ["status"] early, and the flight record must not make the
   router reparse every forwarded response. *)
let status_of_line line =
  let marker = "\"status\":\"" in
  let mlen = String.length marker in
  let llen = String.length line in
  let rec find i =
    if i + mlen > llen then None
    else if String.sub line i mlen = marker then Some (i + mlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> "unknown"
  | Some start -> (
    match String.index_from_opt line start '"' with
    | Some stop -> String.sub line start (stop - start)
    | None -> "unknown")

let stats_json t =
  let counters, lats, threshold =
    locked t (fun () ->
        ( ( t.requests,
            t.routed,
            t.hedged,
            t.hedge_wins,
            t.failovers,
            t.errors,
            t.unavailable,
            t.promotions,
            t.lat_n ),
          Array.sub t.latencies 0 (min t.lat_n lat_window),
          t.hedge_threshold ))
  in
  let requests, routed, hedged, hedge_wins, failovers, errors, unavailable,
      promotions, lat_n =
    counters
  in
  Array.sort compare lats;
  let now = Clock.now () in
  J.Obj
    [ ("role", J.Str "router");
      ("uptime_s", J.Float (now -. t.started));
      ("requests", J.Int requests);
      ("routed", J.Int routed);
      ("hedged", J.Int hedged);
      ("hedge_wins", J.Int hedge_wins);
      ("failovers", J.Int failovers);
      ("errors", J.Int errors);
      ("unavailable", J.Int unavailable);
      ("promotions", J.Int promotions);
      ("hedge_threshold_ms", J.Float (threshold *. 1000.0));
      ("latency_ms",
       J.Obj
         [ ("count", J.Int lat_n);
           ("p50", J.Float (percentile lats 0.50));
           ("p95", J.Float (percentile lats 0.95)) ]);
      ("shards",
       J.Arr
         (List.map
            (fun (_, sh) ->
              J.Obj
                [ ("name", J.Str sh.name);
                  ("addr", J.Str (Net.addr_string sh.s_addr));
                  ("down", J.Bool (sh.down_until > now)) ])
            t.shard_tbl)) ]

let handle_line t line =
  let t0 = Clock.now () in
  locked t (fun () -> t.requests <- t.requests + 1);
  (* Flight-record facts filled in as the request progresses. *)
  let fl_id = ref None and fl_trace = ref None and fl_key = ref "" in
  let fl_hedged = ref false and fl_op = ref "invalid" in
  let response =
    match J.of_string line with
    | exception J.Parse_error msg ->
      locked t (fun () -> t.errors <- t.errors + 1);
      envelope ~status:"error" [ ("error", J.Str msg) ]
    | j -> (
      let id = match J.member "id" j with J.Str s -> Some s | _ -> None in
      fl_id := id;
      match Protocol.op_of_json j with
      | exception J.Parse_error msg ->
        locked t (fun () -> t.errors <- t.errors + 1);
        envelope ?id ~status:"error" [ ("error", J.Str msg) ]
      | exception Protocol.Version_mismatch got ->
        locked t (fun () -> t.errors <- t.errors + 1);
        envelope ?id ~status:"unsupported_protocol"
          [ ("error", J.Str "protocol version mismatch");
            ("expected", J.Int Protocol.proto_version);
            ("got", J.Int got) ]
      | Protocol.Ping ->
        fl_op := "ping";
        envelope ?id ~status:"ok" [ ("op", J.Str "ping") ]
      | Protocol.Stats ->
        fl_op := "stats";
        envelope ?id ~status:"ok"
          [ ("op", J.Str "stats"); ("result", stats_json t) ]
      | Protocol.Metrics ->
        fl_op := "metrics";
        envelope ?id ~status:"ok"
          [ ("op", J.Str "metrics");
            ("exposition", J.Str (Metrics.to_prometheus ()));
            ("result", Metrics.to_json ()) ]
      | Protocol.Trace ->
        fl_op := "trace";
        envelope ?id ~status:"ok"
          [ ("op", J.Str "trace");
            ("process", J.Str "router");
            ("result", fleet_trace_json t) ]
      | Protocol.Flight ->
        fl_op := "flight";
        envelope ?id ~status:"ok"
          [ ("op", J.Str "flight"); ("result", Flight.to_json_all ()) ]
      | Protocol.Fetch key | Protocol.Put (key, _) ->
        (* Replication ops address a single owner; no hedging. *)
        fl_op := (match J.member "op" j with J.Str s -> s | _ -> "fetch");
        fl_key := key;
        locked t (fun () -> t.routed <- t.routed + 1);
        let cands = candidates t key ~hits:0 ~promoted:false in
        fst (forward t ~t0 ~id ~hedge:false line cands)
      | Protocol.Profile (preq, _) ->
        (* A profile push must land where the program's analyses land —
           the route_key owner — so the shard that serves the VRS
           requests is the one whose epoch advances.  Single owner, no
           hedging (a push is not idempotent: replaying it would double
           the counts). *)
        fl_op := "profile";
        let rkey = Protocol.route_key preq in
        fl_key := rkey;
        locked t (fun () -> t.routed <- t.routed + 1);
        let cands = candidates t rkey ~hits:0 ~promoted:false in
        fst (forward t ~t0 ~id ~hedge:false line cands)
      | Protocol.Analyze req ->
        fl_op := "analyze";
        locked t (fun () -> t.routed <- t.routed + 1);
        let rkey = Protocol.route_key req in
        let ckey = Protocol.cache_key req in
        fl_key := rkey;
        let hits, already_promoted = bump_hits t ckey in
        let cands = candidates t rkey ~hits ~promoted:already_promoted in
        let serve ~traced () =
          let resp, hedged = forward t ~t0 ~id ~hedge:true ?traced line cands in
          fl_hedged := hedged;
          resp
        in
        let resp =
          if not (Span.enabled ()) then begin
            (* Tracing off: the wire request is forwarded untouched (a
               client-supplied trace id still reaches the shards). *)
            fl_trace := req.Protocol.trace_id;
            serve ~traced:None ()
          end
          else begin
            (* Adopt the client's trace id or mint one, open the router
               request span under it, and hand the inner context (whose
               parent is that span) to every attempt. *)
            let trace =
              match req.Protocol.trace_id with
              | Some tr -> tr
              | None -> mint_trace ()
            in
            fl_trace := Some trace;
            let outer =
              { Span.trace;
                parent = Option.value ~default:0 req.Protocol.parent_span }
            in
            Span.with_context (Some outer) (fun () ->
                Span.with_ ~name:"request"
                  ~args:[ ("op", J.Str "analyze") ]
                  (fun () ->
                    (match req.Protocol.parent_span with
                    | Some parent ->
                      Span.flow_in ~id:(Span.wire_flow_id ~trace ~parent)
                    | None -> ());
                    let traced =
                      Option.map (fun c -> (j, c)) (Span.current ())
                    in
                    serve ~traced ()))
          end
        in
        maybe_promote t ckey rkey ~hits resp;
        record_latency t (Clock.since t0 *. 1000.0);
        resp)
  in
  Flight.record
    { Flight.f_id = !fl_id;
      f_trace = !fl_trace;
      f_key = !fl_key;
      f_shard = "router";
      f_op = !fl_op;
      f_queue_ms = 0.0;
      f_hedged = !fl_hedged;
      f_cache = "";
      f_outcome = status_of_line response;
      f_ms = Clock.since t0 *. 1000.0;
      f_ts = Unix.gettimeofday () };
  response

(* --- lifecycle ------------------------------------------------------------ *)

let stop t = Net.stop t.listener

let install_sigint t =
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop t))

let run t =
  Server.install_sigusr1 ();
  Log.info "ogc-router: listening"
    ~fields:
      [ ("version", J.Str Version.version);
        ("addr", J.Str (Net.addr_string t.cfg.addr));
        ("shards",
         J.Arr (List.map (fun (n, _) -> J.Str n) t.shard_tbl));
        ("replicas", J.Int t.cfg.replicas) ];
  Net.run t.listener (handle_line t) ~on_drain:(fun () ->
      Log.info "ogc-router: draining" ~fields:[]);
  List.iter (fun (_, sh) -> Conns.close_idle sh.s_conns) t.shard_tbl;
  Log.info "ogc-router: stopped"
    ~fields:
      [ ("uptime_s", J.Float (Clock.since t.started));
        ("requests", J.Int (locked t (fun () -> t.requests))) ]
