(** Front router of a sharded serve fleet.

    The router speaks the same NDJSON protocol as [ogc serve] (see
    {!Ogc_server.Protocol}) and forwards analysis requests to a fleet of
    shard servers.  Placement is a consistent-hash {!Ring} over
    {!Ogc_server.Protocol.route_key} — the program-identity digest — so
    every option variant of one program (the VRS cost sweep, policy or
    input flips) lands on the same shard and reuses its warm chain-prefix
    artifacts.  Routing never affects correctness: shards are
    self-contained and results are content-addressed, so any shard can
    compute any request; the ring only decides which caches stay warm.

    {b Pools and backpressure.}  Each shard gets a bounded connection
    pool ([pool_size] sockets, lazily opened).  When every connection is
    busy, up to [max_waiters] requests queue per shard; beyond that the
    attempt fails fast and the request falls through to the next replica
    — backpressure surfaces as failover, not as unbounded queueing.

    {b Hedging.}  A request that has not answered within the hedge
    threshold gets a second copy sent to the ring's next replica; the
    first response wins (the straggler still completes and returns its
    connection, keeping the NDJSON stream in sync).  The threshold
    adapts to the observed latency distribution (roughly 2x a recent
    p95, recomputed continuously) or is pinned with [hedge_ms].
    Resent analyses are idempotent — both shards compute the same
    content-addressed result — so hedging is always safe.

    {b Failover.}  A connection failure or pool overload marks the shard
    down for a cooldown and moves the request to the next distinct ring
    successor, through the whole fleet if necessary; only when every
    shard has failed does the client see [{"status":"unavailable"}].

    {b Replication.}  The router counts hits per result key; when a key
    reaches [promote_after] hits it is promoted: its result payload is
    pushed ([put]) to the next [replicas - 1] ring successors, and
    subsequent requests for the hot key rotate across the replica set.
    A hedged or failed-over request for a promoted key is then a result
    cache hit on the replica instead of a recompute.  A put that fails
    is logged at warn with the shard and the error, and counted in
    [ogc_router_shard_replica_put_failures_total{shard}].

    Local ops ([ping], [stats], [metrics], [flight]) are answered by the
    router itself; [stats] reports routing counters and per-shard health
    rather than proxying a single shard.

    {b Tracing.}  When {!Ogc_obs.Span} collection is on, every analyze
    gets a trace id (the client's ["trace_id"] if it sent one, a minted
    one otherwise) and a router-side request span; each shard attempt —
    primary, hedge, or failover — opens its own child span and stamps
    the forwarded request with ["trace_id"]/["parent_span"], emitting a
    flow event the shard's request span resolves on the far side.  The
    [trace] op pulls the router's span rings {e and} every reachable
    shard's (via their own [trace] op) into one
    [{"processes":[{"name",..,"trace",..}]}] document — [ogc trace
    --fleet] merges it into a single Perfetto trace.  Tracing off (the
    default), request lines are forwarded byte-identically.

    {b Flight recorder.}  Every request — including local ops and parse
    errors — leaves one bounded-ring {!Ogc_obs.Flight} record (id, trace
    id, route key, op, hedged flag, outcome, duration); the [flight] op
    returns the ring, and SIGUSR1 dumps it as NDJSON on stderr. *)

type target = { t_name : string; t_addr : Ogc_net.Net.addr }

type config = {
  addr : Ogc_net.Net.addr;  (** where the router listens *)
  shards : target list;
  pool_size : int;  (** connections per shard *)
  max_waiters : int;  (** queued acquires per shard before failover *)
  replicas : int;  (** copies of a promoted hot result, primary included *)
  promote_after : int;  (** result-key hits before promotion *)
  hedge_ms : float option;  (** fixed hedge threshold; [None] = adaptive *)
  request_timeout_ms : int;  (** overall per-request budget *)
}

val default_config : addr:Ogc_net.Net.addr -> shards:target list -> config
(** [pool_size = 8], [max_waiters = 64], [replicas = 2],
    [promote_after = 3], adaptive hedging, [request_timeout_ms = 30_000].
    Shard connects time out after {!Ogc_net.Net.connect}'s 1 s. *)

type t

val create : config -> t
(** Bind and listen; shard connections are opened lazily on first use,
    so shards may come up after the router.  Raises [Invalid_argument]
    on an empty shard list or duplicate shard names. *)

val run : t -> unit
(** Serve until {!stop}; returns after the drain.  Call at most once. *)

val stop : t -> unit
(** Request shutdown; idempotent, safe from a signal handler. *)

val install_sigint : t -> unit

val handle_line : t -> string -> string
(** Route one request line and return the response line (no trailing
    newline).  Exposed for tests; [run] uses it for every connection. *)

val stats_json : t -> Ogc_json.Json.t
(** Routing counters (requests, hedges and hedge wins, failovers,
    promotions, unavailable replies), the current hedge threshold,
    client-observed latency percentiles, and per-shard health. *)
