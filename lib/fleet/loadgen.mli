(** Synthetic load driver for a serve fleet (or a single server).

    [run] replays a deterministic stream of NDJSON analysis submissions
    against [addr] from [clients] parallel connections (one
    {!Ogc_exec.Pool} domain each).  The stream is a pure function of
    [seed]: request [i] is either a {e warm} replay of an earlier
    request (probability [warm_ratio] — a byte-identical resubmission,
    so a result-cache hit on whichever shard owns it) or a {e cold}
    submission of one of six synthetic MiniC programs.  Seven cold
    requests in ten are VRS analyses at a cost label drawn from
    30/50/70/90/110, the rest VRP or no pass, so a fleet routed by
    program identity exercises chain-prefix artifact reuse exactly like
    the paper's cost sweep.

    Failures are retried with {!Ogc_net.Net.backoff} ([retries] attempts
    per submission, reconnecting on connection errors);
    [overloaded] and [unavailable] replies count as retryable.  A
    submission is {e failed} only when its retry budget is exhausted —
    the fleet-smoke criterion "kill one shard mid-run, zero failed
    submissions" means every request eventually answered [ok] through
    hedging or failover.

    Latency is recorded into an {!Ogc_obs.Metrics} histogram
    ([ogc_loadgen_seconds], fine sub-millisecond-to-10s buckets);
    p50/p95/p99 are interpolated from the bucket counts observed during
    the run (metrics are force-enabled for the duration and restored
    after). *)

type config = {
  addr : Ogc_net.Net.addr;
  requests : int;
  clients : int;  (** parallel connections / worker domains *)
  warm_ratio : float;  (** probability a request replays an earlier one *)
  seed : int;
  retries : int;  (** attempts per submission before counting it failed *)
  trace_sample : int;
      (** stamp every [n]th submission with a deterministic ["trace_id"]
          (0 = never).  Trace members are excluded from cache and route
          keys, so sampling never changes placement or hit rates. *)
}

val default_config : addr:Ogc_net.Net.addr -> config
(** 200 requests, 4 clients, [warm_ratio = 0.5], [seed = 42], 5
    retries, no trace sampling. *)

type report = {
  total : int;
  ok : int;
  failed : int;  (** submissions that exhausted their retry budget *)
  retried : int;  (** extra attempts beyond the first *)
  cache_hits : int;  (** [ok] responses answered ["cache":"hit"] *)
  wall_s : float;
  throughput_rps : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  latency_hist : (float * int) list;
      (** per-bucket observation counts for this run, by upper bound in
          seconds (the [ogc_loadgen_seconds] buckets) *)
  overflow : int;  (** observations past the last finite bucket *)
}

val request_line : config -> int -> string
(** The [i]th request of the stream (deterministic in [config.seed]);
    exposed for tests asserting warm replays are byte-identical. *)

val run : ?kill:int * (unit -> unit) -> config -> report
(** Replay the stream.  [kill = (n, f)] runs [f] once, as soon as [n]
    submissions have completed — fault injection hook for killing a
    shard mid-run. *)

val report_json : report -> Ogc_json.Json.t
