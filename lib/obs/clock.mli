(** The one clock every duration reads.

    [now] is CLOCK_MONOTONIC (through [bechamel.monotonic_clock], the
    source perfbench's own timers read) in seconds from an
    arbitrary origin: it never steps, so a latency histogram, a span's
    B/E pair, a deadline or a cooldown measured on it cannot go negative
    or jump when the wall clock is adjusted.  Its readings only mean
    something relative to each other; a point in time meant for a human
    (a log line's [ts], a flight record's [f_ts]) reads the wall clock
    instead. *)

val now : unit -> float
(** Seconds on the monotonic clock. *)

val since : float -> float
(** [since t0] is [now () -. t0]. *)
