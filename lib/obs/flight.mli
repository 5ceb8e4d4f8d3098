(** Request flight recorder: a bounded, always-on ring of per-request
    summaries.

    Spans answer "where did this request spend its time?" but cost a
    flag flip and ring traffic per phase; the flight recorder answers
    "what were the last few thousand requests?" for free — one
    mutex-guarded array write per request, no allocation, always on.
    Each entry carries the identifiers needed to pivot into the other
    observability planes: the trace id (spans), route key (placement)
    and shard.

    Requests slower than {!set_slow_ms} auto-capture: the record, plus
    the local span slice of its trace when tracing is on, is written to
    the structured log as one ["slow_request"] warning line. *)

type record = {
  f_id : string option;  (** client-supplied request id *)
  f_trace : string option;  (** distributed trace id *)
  f_key : string;  (** route/cache key, [""] when the op has none *)
  f_shard : string;  (** shard id, or ["router"] *)
  f_op : string;
  f_queue_ms : float;  (** admission-to-execution wait *)
  f_hedged : bool;
  f_cache : string;  (** ["hit"] | ["miss"] | [""] *)
  f_outcome : string;  (** response status *)
  f_ms : float;  (** end-to-end duration, on {!Clock} *)
  f_ts : float;
      (** wall-clock Unix seconds at completion: a point in time to
          line records up with logs, not a duration *)
}

val capacity : int
(** Ring size (4096): older records are overwritten. *)

val record : record -> unit
(** Append; triggers the slow-request capture when [f_ms] exceeds the
    threshold. *)

val set_slow_ms : float option -> unit
(** Slow-request auto-capture threshold; [None] (default) disables. *)

val snapshot : unit -> record list
(** The retained records, oldest first. *)

val total : unit -> int
(** Records ever written. *)

val dropped : unit -> int
(** Records overwritten ([max 0 (total - capacity)]). *)

val to_json : record -> Ogc_json.Json.t

val to_json_all : unit -> Ogc_json.Json.t
(** [{"total": n; "dropped": d; "records": [...]}] — the ["flight"]
    protocol op's payload. *)

val dump : out_channel -> unit
(** NDJSON, one record per line, oldest first — the SIGUSR1 dump. *)

val reset : unit -> unit
(** Clear the ring and threshold (tests only). *)
