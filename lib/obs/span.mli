(** Span-based phase tracing in the Chrome [trace_event] format.

    [with_ ~name f] records a begin event, runs [f], and records the
    matching end event (also on exception), into a per-thread ring
    buffer — so tracing inside {!Ogc_exec.Pool} workers, server
    connection threads and the main thread never contends beyond a
    per-ring mutex held for one array write.  {!export}/{!write} merge
    every ring into a single [{"traceEvents": [...]}] JSON document that
    {{:https://ui.perfetto.dev}Perfetto} and [chrome://tracing] load
    directly: each thread renders as a track, spans nest into a flame
    chart.

    Distributed tracing: every span gets a process-unique {e span id}
    (in its begin args), and an ambient per-thread {!ctx} — a trace id
    plus the innermost enclosing span id — flows through {!with_}, so a
    span opened under [with_context] records [trace_id]/[parent_span]
    and rebinds the ambient parent to itself for its children.  Flow
    events ({!flow_out}/{!flow_in}) draw Perfetto arrows between spans
    on different threads — or, after {!merge_processes}, different
    processes.

    Disabled by default: [with_] is then an atomic load, a branch and a
    tail call of [f].  Timestamps are {!Clock} readings, in microseconds
    relative to the moment tracing was last enabled. *)

val set_enabled : bool -> unit
(** Enabling (re)starts the trace clock; it does not clear events
    already recorded ({!reset} does). *)

val enabled : unit -> bool

val with_ : ?args:(string * Ogc_json.Json.t) list -> name:string ->
  (unit -> 'a) -> 'a
(** Run the thunk inside a [B]/[E] event pair.  [args] lands on the
    begin event and shows in the Perfetto detail pane, together with the
    span's [span_id] and — under an ambient context — [trace_id] and
    [parent_span]. *)

val timed : ?args:(string * Ogc_json.Json.t) list -> name:string ->
  (unit -> 'a) -> 'a * float
(** {!with_} that also returns the thunk's duration in {!Clock}
    seconds, measured whether or not tracing is on.  When it is, the
    span's [E.ts - B.ts] is that same duration (in µs): both come from
    one pair of clock readings, so a histogram fed from it agrees with
    the trace.  An exception still closes the span and propagates. *)

val instant : ?args:(string * Ogc_json.Json.t) list -> string -> unit
(** A zero-duration marker ([ph = "i"], thread scope). *)

(** {1 Trace context} *)

type ctx = { trace : string; parent : int }
(** A distributed-trace coordinate: the fleet-wide trace id and the span
    id of the innermost enclosing span ([parent] of the next span
    opened). *)

val current : unit -> ctx option
(** The calling thread's ambient context, if any. *)

val with_context : ctx option -> (unit -> 'a) -> 'a
(** Run the thunk under the given ambient context, restoring the
    previous one afterwards (also on exception). *)

val flow_out : id:int -> unit
(** Emit a flow-start ([ph = "s"]) bound to the enclosing slice. *)

val flow_in : id:int -> unit
(** Emit a flow-finish ([ph = "f"], [bp = "e"]) bound to the enclosing
    slice; Perfetto draws the arrow from the matching {!flow_out}. *)

val wire_flow_id : trace:string -> parent:int -> int
(** Flow id for a cross-process edge, derived only from wire-visible
    data — both ends compute the same id from the request's
    [trace_id]/[parent_span] members without sharing a counter. *)

val local_flow_id : unit -> int
(** Fresh flow id for an in-process handoff (pool submit → worker),
    salted with the pid so merged multi-process documents cannot
    collide. *)

(** {1 Export} *)

val export : unit -> Ogc_json.Json.t
(** [{"traceEvents": [...]; "displayTimeUnit": "ms"; "dropped_events": n}]
    — thread-name metadata first, then every recorded event in timestamp
    order.  Rings hold the most recent 32768 events per thread; older
    events are overwritten, counted by [ogc_span_dropped_total] and the
    [dropped_events] field. *)

val dropped_events : unit -> int
(** Events overwritten so far across all rings (Σ max 0 (total − cap)). *)

val trace_slice : string -> Ogc_json.Json.t
(** All local [B]/[E] events belonging to the given trace id, timestamp
    ordered — the process-local slice of one distributed request, sized
    for inlining into a slow-request log line. *)

val merge_processes : (string * Ogc_json.Json.t) list -> Ogc_json.Json.t
(** Merge per-process {!export} documents into one fleet trace: process
    [i] is re-keyed to pid [i+1] with a [process_name] metadata track
    named by its label; [dropped_events] sums. *)

val write : string -> unit
(** Compact {!export} to a file. *)

val reset : unit -> unit
(** Drop all recorded events and ambient contexts (tests only). *)
