module J = Ogc_json.Json
module Front = Ogc_server.Front
module Protocol = Ogc_server.Protocol
module Version = Ogc_server.Version
module Metrics = Ogc_obs.Metrics
module Log = Ogc_obs.Log
module Span = Ogc_obs.Span
module Clock = Ogc_obs.Clock
module Net = Ogc_net.Net
module Lru = Ogc_exec.Lru

type target = { t_name : string; t_addr : Net.addr }

type config = { addr : Net.addr; shards : target list }

(* The router's tuning, the same for every fleet: connections pooled per
   shard and acquires that may queue for one before an attempt fails
   over; the copies of a promoted hot result (primary included) and the
   hit that promotes it; the budget of one request across its hedges and
   failovers; and where the adaptive hedge threshold starts. *)
let pool_size = 8
let max_waiters = 64
let replicas = 2
let promote_after = 3
let request_budget = 30.0 (* seconds *)
let initial_hedge = 0.025 (* seconds *)

(* --- bounded per-shard connection pools ------------------------------------ *)

exception Backpressure

module Conns = struct
  type t = {
    addr : Net.addr;
    m : Mutex.t;
    cond : Condition.t;
    mutable idle : Net.conn list;
    mutable live : int;  (* connections opened and not yet destroyed *)
    mutable waiters : int;
  }

  let create addr =
    { addr;
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
        if t.live < pool_size then begin
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
        else if t.waiters >= max_waiters then begin
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

let down_cooldown = 1.0 (* seconds a failed shard is deprioritized *)

type t = {
  cfg : config;
  ring : Ring.t;
  shard_tbl : (string * shard) list;  (* ring name -> shard *)
  listener : Net.listener;
  front : Front.t;
  started : float;
  m : Mutex.t;  (* guards the mutable fields below *)
  mutable routed : int;
  mutable hedged : int;
  mutable hedge_wins : int;
  mutable failovers : int;
  mutable unavailable : int;
  mutable promotions : int;
  hits : (string, int * bool) Lru.t;
      (* result key -> (request count, promoted), 8192 keys at most *)
  mutable hedge_threshold : float;  (* seconds *)
}

let shard_of t name = List.assoc name t.shard_tbl

let create cfg =
  if cfg.shards = [] then invalid_arg "Router.create: no shards";
  let names = List.map (fun s -> s.t_name) cfg.shards in
  List.iteri
    (fun i n ->
      if List.mem n (List.filteri (fun j _ -> j > i) names) then
        Fmt.failwith "duplicate shard name %S" n)
    names;
  let ring = Ring.create names in
  let shard_tbl =
    List.map
      (fun s ->
        ( s.t_name,
          { name = s.t_name;
            s_addr = s.t_addr;
            s_conns = Conns.create s.t_addr;
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
    front = Front.create ~name:"router";
    started = Clock.now ();
    m = Mutex.create ();
    routed = 0;
    hedged = 0;
    hedge_wins = 0;
    failovers = 0;
    unavailable = 0;
    promotions = 0;
    hits = Lru.create 8192;
    hedge_threshold = initial_hedge }

(* --- adaptive hedge threshold ---------------------------------------------- *)

(* Hedge at ~2x a recent p95 of the front's latency window: rare
   stragglers trigger a second copy, the common case never pays for
   one.  Clamped so a pathological window can neither hedge every
   request nor disable hedging. *)
let recompute_threshold t =
  let p95_s = Front.percentile_ms t.front 0.95 /. 1000.0 in
  t.hedge_threshold <-
    Float.min (request_budget /. 4.0) (Float.max 0.002 (2.0 *. p95_s))

(* --- candidate selection --------------------------------------------------- *)

(* Ring successors of the route key, healthy shards first (ring order
   preserved within each class — if everything is down we still try, in
   order).  Promoted hot keys rotate their entry point across the first
   [replicas] successors so a popular analysis front is spread over its
   whole replica set instead of hammering the primary. *)
let candidates t rkey ~hits ~promoted =
  let names = Ring.successors t.ring rkey (List.length t.cfg.shards) in
  let names =
    if promoted then begin
      let r = min replicas (List.length names) in
      let rec split n acc = function
        | rest when n = 0 -> (List.rev acc, rest)
        | x :: rest -> split (n - 1) (x :: acc) rest
        | [] -> (List.rev acc, [])
      in
      let set, rest = split r [] names in
      let k = hits mod r in
      let rot = List.filteri (fun i _ -> i >= k) set
                @ List.filteri (fun i _ -> i < k) set in
      rot @ rest
    end
    else names
  in
  let now = Clock.now () in
  let shards = List.map (shard_of t) names in
  let up, down = List.partition (fun s -> s.down_until <= now) shards in
  up @ down

(* --- request forwarding ---------------------------------------------------- *)

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
  Mutex.protect cell.cm (fun () -> cell.launched <- cell.launched + 1);
  let roundtrip line =
    let record_error () =
      sh.down_until <- Clock.now () +. down_cooldown;
      Mutex.protect cell.cm (fun () -> cell.errored <- cell.errored + 1)
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
        Mutex.protect cell.cm (fun () ->
            if cell.response = None then cell.response <- Some (idx, resp))
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

(* Forward the request line along [cands], hedging once past a
   straggler and failing over past errors, until a response,
   exhaustion, or the request budget runs out.  A launched hedge is
   marked in the request's flight facts. *)
let forward t (r : Front.request) ~hedge ?traced cands =
  let t0 = r.Front.arrived and line = r.Front.line in
  let cell =
    { cm = Mutex.create (); response = None; launched = 0; errored = 0 }
  in
  let deadline = t0 +. request_budget in
  let remaining = ref cands in
  let attempt_no = ref 0 in
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
        r.Front.facts.hedged <- true;
        Mutex.protect t.m (fun () -> t.hedged <- t.hedged + 1);
        if Metrics.enabled () then Metrics.incr sh.m_hedges
      | `Failover ->
        Mutex.protect t.m (fun () -> t.failovers <- t.failovers + 1);
        if Metrics.enabled () then Metrics.incr sh.m_failovers);
      launch_attempt cell !attempt_no sh ~traced line why_name;
      incr attempt_no;
      true
  in
  ignore (launch `Primary);
  let hedge_at = ref (t0 +. t.hedge_threshold) in
  let give_up () =
    Mutex.protect t.m (fun () -> t.unavailable <- t.unavailable + 1);
    Front.count_error t.front;
    Front.envelope ?id:r.Front.id ~status:"unavailable"
      [ ("error", J.Str "no shard answered within the request budget") ]
  in
  let rec wait () =
    let response, launched, errored =
      Mutex.protect cell.cm (fun () ->
          (cell.response, cell.launched, cell.errored))
    in
    match response with
    | Some (idx, resp) ->
      if idx > 0 then
        Mutex.protect t.m (fun () -> t.hedge_wins <- t.hedge_wins + 1);
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
  wait ()

(* --- hot-key promotion ----------------------------------------------------- *)

(* The key's request count, this request included, and whether it is
   promoted.  A key evicted from [hits] loses its promoted flag with its
   count, so if it turns hot again it is promoted again. *)
let bump_hits t key =
  Mutex.protect t.m (fun () ->
      let n, promoted =
        Option.value ~default:(0, false) (Lru.find t.hits key)
      in
      ignore (Lru.add t.hits key (n + 1, promoted));
      (n + 1, promoted))

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
    match Ring.successors t.ring rkey replicas with
    | [] -> []
    | _primary :: others -> others
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

(* The first ok answer at [promote_after] hits promotes the key, once
   per entry in [hits]. *)
let maybe_promote t ckey rkey ~hits ~promoted resp =
  if hits >= promote_after && not promoted then
    match J.of_string resp with
    | exception J.Parse_error _ -> ()
    | j -> (
      match (J.member "status" j, J.member "result" j) with
      | J.Str "ok", (J.Obj _ as result) ->
        let claimed =
          Mutex.protect t.m (fun () ->
              match Lru.find t.hits ckey with
              | Some (n, false) ->
                ignore (Lru.add t.hits ckey (n, true));
                t.promotions <- t.promotions + 1;
                true
              | _ -> false)
        in
        if claimed then
          ignore (Thread.create (fun () -> replicate t ckey rkey result) ())
      | _ -> ())

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

let stats_json t =
  let requests = Front.requests t.front and errors = Front.errors t.front in
  let latency = Front.latency_json t.front in
  let now = Clock.now () in
  Mutex.protect t.m (fun () ->
      J.Obj
        [ ("role", J.Str "router");
          ("uptime_s", J.Float (now -. t.started));
          ("requests", J.Int requests);
          ("routed", J.Int t.routed);
          ("hedged", J.Int t.hedged);
          ("hedge_wins", J.Int t.hedge_wins);
          ("failovers", J.Int t.failovers);
          ("errors", J.Int errors);
          ("unavailable", J.Int t.unavailable);
          ("promotions", J.Int t.promotions);
          ("hot_key_evictions", J.Int (Lru.evictions t.hits));
          ("hedge_threshold_ms", J.Float (t.hedge_threshold *. 1000.0));
          ("latency_ms", latency);
          ("shards",
           J.Arr
             (List.map
                (fun (_, sh) ->
                  J.Obj
                    [ ("name", J.Str sh.name);
                      ("addr", J.Str (Net.addr_string sh.s_addr));
                      ("down", J.Bool (sh.down_until > now)) ])
                t.shard_tbl)) ])

(* The ops the front routes here, each forwarded along the ring. *)
let route t (r : Front.request) =
  let facts = r.Front.facts in
  let single_owner key =
    (* A replica put or a profile push addresses a single owner, with no
       hedging (a push is not idempotent: replaying it would double the
       counts). *)
    facts.key <- key;
    Mutex.protect t.m (fun () -> t.routed <- t.routed + 1);
    forward t r ~hedge:false (candidates t key ~hits:0 ~promoted:false)
  in
  match r.Front.op with
  | Protocol.Put (key, _) -> single_owner key
  | Protocol.Profile (preq, _) ->
    (* A profile push must land where the program's analyses land —
       the route_key owner — so the shard that serves the VRS requests
       is the one whose epoch advances. *)
    single_owner (Protocol.route_key preq)
  | Protocol.Analyze req ->
    Mutex.protect t.m (fun () -> t.routed <- t.routed + 1);
    let rkey = Protocol.route_key req in
    let ckey = Protocol.cache_key req in
    facts.key <- rkey;
    let hits, promoted = bump_hits t ckey in
    let cands = candidates t rkey ~hits ~promoted in
    let resp =
      if not (Span.enabled ()) then begin
        (* Tracing off: the wire request is forwarded untouched (a
           client-supplied trace id still reaches the shards). *)
        facts.trace <- req.Protocol.trace_id;
        forward t r ~hedge:true cands
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
        facts.trace <- Some trace;
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
                  Option.map (fun c -> (r.Front.json, c)) (Span.current ())
                in
                forward t r ~hedge:true ?traced cands))
      end
    in
    maybe_promote t ckey rkey ~hits ~promoted resp;
    if Front.record_latency t.front r.Front.arrived mod 64 = 0 then
      recompute_threshold t;
    resp
  | Protocol.(Ping | Stats | Metrics | Trace | Flight) ->
    (* answered by the front *)
    assert false

let handle_line t line =
  Front.handle_line t.front
    ~stats:(fun () -> stats_json t)
    ~trace:(fun () -> fleet_trace_json t)
    (route t) line

(* --- lifecycle ------------------------------------------------------------ *)

let stop t = Net.stop t.listener

let install_sigint t =
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> stop t))

let run t =
  Front.install_sigusr1 ();
  Log.info "ogc-router: listening"
    ~fields:
      [ ("version", J.Str Version.version);
        ("addr", J.Str (Net.addr_string t.cfg.addr));
        ("shards",
         J.Arr (List.map (fun (n, _) -> J.Str n) t.shard_tbl));
        ("replicas", J.Int replicas) ];
  Net.run t.listener (handle_line t) ~on_drain:(fun () ->
      Log.info "ogc-router: draining" ~fields:[]);
  List.iter (fun (_, sh) -> Conns.close_idle sh.s_conns) t.shard_tbl;
  Log.info "ogc-router: stopped"
    ~fields:
      [ ("uptime_s", J.Float (Clock.since t.started));
        ("requests", J.Int (Front.requests t.front)) ]
