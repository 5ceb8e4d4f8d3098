(** Persistent [Domain] worker pool.

    Two layers share one implementation:

    - a {b persistent pool} ({!create} / {!submit} / {!await} /
      {!shutdown}) for long-lived services: worker domains are spawned
      once and reused across many submissions — the [ogc serve]
      optimization daemon keeps one for its whole lifetime;
    - {b one-shot maps} ({!map}) for embarrassingly
      parallel task lists — the experiment harness shards its workload ×
      binary-version × policy grid this way.

    Semantics are strictly deterministic for the maps: results come back
    in submission order regardless of completion order, and a task's
    exception is re-raised in the caller only after every task has run
    (the lowest-index failure wins when several tasks fail), so parallel
    runs are observationally identical to sequential ones.

    Parallelism degree, in decreasing priority:

    - the [?jobs] argument when given;
    - the [OGC_JOBS] environment variable;
    - [Domain.recommended_domain_count ()].

    When a map's resolved degree is 1 (single-core machine, [OGC_JOBS=1])
    no domain is ever spawned and the map degrades to a plain sequential
    loop.  A persistent pool always has at least one worker domain. *)

val jobs_from_env : unit -> int option
(** [OGC_JOBS] as a positive integer, or [None] when unset/unparsable. *)

val default_jobs : unit -> int
(** [OGC_JOBS], else [Domain.recommended_domain_count ()], clamped to
    [1, 64]. *)

val resolve_jobs : int option -> int
(** [resolve_jobs (Some n)] clamps [n]; [resolve_jobs None] is
    [default_jobs ()].  [Some 0] (the CLI's "auto") behaves like
    [None]. *)

(** {1 Persistent pools} *)

type t
(** A pool of worker domains pulling tasks from a shared FIFO queue. *)

type 'a ticket
(** A handle on one submitted task's eventual result. *)

val create : ?jobs:int -> unit -> t
(** Spawn [resolve_jobs jobs] worker domains (at least 1).  The pool
    lives until {!shutdown}. *)

val size : t -> int
(** Number of worker domains. *)

val submit : t -> (unit -> 'a) -> 'a ticket
(** Enqueue a task.  Tasks start in FIFO order (completion order depends
    on scheduling).  Raises [Invalid_argument] after {!shutdown}.

    When span tracing is enabled and the submitting thread carries an
    ambient {!Ogc_obs.Span.ctx}, the task runs under that context inside
    a [pool:task] span connected to the submit site by a flow event, so
    worker-side spans nest under the triggering request in traces. *)

val await : 'a ticket -> 'a
(** Block until the task has run; return its value or re-raise its
    exception (with the worker-side backtrace). *)

val shutdown : t -> unit
(** Graceful drain: stop accepting work, let the queue empty, join every
    worker domain.  Tasks already submitted all run to completion and
    their tickets stay valid.  Idempotent. *)

(** {1 One-shot maps} *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** Order-preserving parallel map over a fresh pool (spawned and joined
    inside the call; degree 1 runs inline without domains). *)
