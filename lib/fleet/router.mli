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
    pool (8 sockets, lazily opened; connects time out after
    {!Ogc_net.Net.connect}'s 1 s).  When every connection is busy, up to
    64 requests queue per shard; beyond that the attempt fails fast and
    the request falls through to the next replica — backpressure
    surfaces as failover, not as unbounded queueing.

    {b Hedging.}  A request that has not answered within the hedge
    threshold gets a second copy sent to the ring's next replica; the
    first response wins (the straggler still completes and returns its
    connection, keeping the NDJSON stream in sync).  The threshold
    adapts to the observed latency distribution: it starts at 25 ms and,
    every 64 analyses, becomes 2x the p95 of the front's latency window,
    clamped to [2 ms, 7.5 s].
    Resent analyses are idempotent — both shards compute the same
    content-addressed result — so hedging is always safe.

    {b Failover.}  A connection failure or pool overload marks the shard
    down for a cooldown and moves the request to the next distinct ring
    successor, through the whole fleet if necessary; only when every
    shard has failed, or the 30 s request budget runs out, does the
    client see [{"status":"unavailable"}].

    {b Replication.}  The router counts hits per result key, for the
    8192 most recently requested keys (an exact LRU, {!Ogc_exec.Lru}:
    an evicted key starts again from zero and loses its promotion).
    At its third hit a key is promoted: its result payload is pushed
    ([put]) to the next ring successor, and subsequent requests for the
    hot key alternate between the primary and that replica.
    A hedged or failed-over request for a promoted key is then a result
    cache hit on the replica instead of a recompute.  A put that fails
    is logged at warn with the shard and the error, and counted in
    [ogc_router_shard_replica_put_failures_total{shard}].

    Each line goes through the request front {!Ogc_server.Front}, the
    same as in [ogc serve]: it answers the local ops ([ping], [stats],
    [metrics], [trace], [flight]) and the parse errors, replies exactly
    once per line and leaves one {!Ogc_obs.Flight} record per line
    (with the hedged flag).  [stats] reports routing counters and
    per-shard health rather than proxying a single shard.

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
    default), request lines are forwarded byte-identically. *)

type target = { t_name : string; t_addr : Ogc_net.Net.addr }

type config = {
  addr : Ogc_net.Net.addr;  (** where the router listens *)
  shards : target list;
}

type t

val create : config -> t
(** Bind and listen; shard connections are opened lazily on first use,
    so shards may come up after the router.  Raises [Invalid_argument]
    on an empty shard list and [Failure] naming a duplicate shard name;
    both before binding. *)

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
    promotions, unavailable replies), hot-key table evictions, the
    current hedge threshold, client-observed latency percentiles, and
    per-shard health. *)
