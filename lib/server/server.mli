(** The optimization service: a long-running daemon that accepts
    newline-delimited JSON analysis requests (see {!Protocol}) over a
    Unix-domain or TCP socket.

    Architecture: the calling thread runs the {!Ogc_net.Net} accept
    loop; every connection gets a systhread that reads request lines
    and writes one response line per request, in order.  Each line goes
    through the request front ({!Front}, shared with the fleet router),
    which parses it, answers the local ops and replies exactly once,
    even when an analysis raises.  CPU-bound analyses are
    submitted to a persistent {!Ogc_exec.Pool} of worker domains behind
    a bounded admission queue — when more than [queue_limit] analyses
    are in flight the server replies [{"status":"overloaded"}] instead
    of queueing unboundedly.  Results are memoized in a
    content-addressed {!Cache}, so a repeated request is answered from
    the cache ([{"cache":"hit"}]) with a byte-identical result payload.
    Under the whole-result cache sits a per-pass artifact tier (an
    {!Ogc_pass.Pass.Store} shared by the worker domains): a request
    that misses the result cache but shares a chain prefix with an
    earlier one — say the same program at a different VRS cost — reuses
    the stored VRP fixpoint and training/value profiles instead of
    recomputing them ([stats] reports per-pass hit/miss counts under
    ["passes"]).

    {b Online specialization.}  The [profile] op lets clients stream
    back what they observed running a program (block counts, TNV value
    observations, always-zero counts).  Pushes accumulate in a
    {!Profile_store} and bump the program's {e epoch}; VRS requests then
    consume the accumulated profile instead of the training interpreter
    runs, with the epoch salting their cache keys — the same VRS chain
    at every epoch.  When a push outdates a cached result the server
    answers stale-while-revalidate: the previous-epoch artifact is
    served immediately ([{"cache":"stale"}]) while a background
    re-specialization runs on the worker pool ([stats] reports all of
    this under ["profile"]).

    Shutdown is graceful: {!stop} (or SIGINT after {!install_sigint})
    makes {!run} stop accepting, lets every in-flight request finish and
    its response flush, waits for the connections to close, then
    retires the worker domains. *)

type config = {
  addr : Ogc_net.Net.addr;
  jobs : int option;  (** worker domains; [None] = [Pool.default_jobs] *)
  queue_limit : int;  (** in-flight analyses before shedding load *)
  cache_capacity : int;
      (** entries of the result cache and of the profile store; the pass
          store holds [max 6 cache_capacity] artifacts, one whole chain
          at least *)
  cache_dir : string option;  (** persistent cache tier, if any *)
  shard_id : string option;
      (** fleet shard name; namespaces [cache_dir] as
          [cache_dir/shard-<id>] so co-located shards never race on one
          atomic-write path, and is echoed in [stats] *)
  inject_slow_ms : float option;
      (** fault injection: delay every analyze by this much, to make a
          deliberately slow shard for hedging/auto-capture smoke tests *)
}

val default_config : Ogc_net.Net.addr -> config
(** [jobs = None], [queue_limit = 64], [cache_capacity = 256], no
    persistent cache.  Lifecycle events go
    through {!Ogc_obs.Log} (structured NDJSON on stderr by default;
    raise the level to [Error] to silence them). *)

type t

val create : config -> t
(** Bind and listen (unlinking a stale Unix socket file first), start
    the worker pool.  Raises [Unix.Unix_error] when the address is
    unavailable. *)

val run : t -> unit
(** Serve until {!stop}; returns after the graceful drain completes.
    Call at most once. *)

val stop : t -> unit
(** Request shutdown; safe from a signal handler or another thread.
    Idempotent.  [run] performs the drain and returns. *)

val install_sigint : t -> unit
(** Route SIGINT to {!stop} for a clean drain on Ctrl-C. *)

val stats_json : t -> Ogc_json.Json.t
(** The same counters the ["stats"] op reports: requests, cache
    hit/miss/eviction counts and byte footprint (both tiers), per-pass
    artifact-store hit/miss counts and store evictions (["passes"]),
    the profile store and stale-answer index with their evictions, and
    the background re-specializations completed and dropped
    (["profile"]), latency percentiles plus per-op latency
    histograms (from {!Ogc_obs.Metrics}; all-zero unless metrics are
    enabled), pool utilization. *)

val handle_line : t -> string -> string
(** Process one request line and return the response line (without the
    trailing newline).  Exposed for tests; [run] uses it for every
    connection. *)
