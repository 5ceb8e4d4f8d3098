(** The request front of [ogc serve] and [ogc router]: everything
    between a request line and its reply that does not depend on what
    the process does with an analysis.

    {!handle_line} parses the line, answers the parse failures and the
    local ops ([ping], [stats], [metrics], [trace], [flight]) itself,
    and hands [analyze], [profile] and [put] to the caller's handler.
    Every line gets exactly one reply: an exception out of the handler
    becomes one [{"status":"error"}] reply.  Every line is counted in
    [requests], every error reply in [errors], and every line leaves
    one {!Ogc_obs.Flight} record whose outcome is the reply's status. *)

type t

val create : name:string -> t
(** [name] ([serve], [shard-<id>] or [router]) is the flight records'
    shard and the [trace] reply's ["process"]. *)

val envelope :
  ?id:string -> status:string -> (string * Ogc_json.Json.t) list -> string
(** A reply line: [version], the request's [id] if any, [status], then
    the extra members. *)

(** What the handler learns for the line's flight record. *)
type facts = {
  mutable key : string;  (** route or cache key *)
  mutable trace : string option;
  mutable queue_ms : float;  (** admission-to-execution wait *)
  mutable hedged : bool;
  mutable cache : string;  (** ["hit"], ["miss"], ["stale"] or [""] *)
}

type request = {
  arrived : float;  (** {!Ogc_obs.Clock} reading at arrival *)
  line : string;  (** the raw line, which the router forwards *)
  json : Ogc_json.Json.t;
  id : string option;
  op : Protocol.op;  (** [Analyze], [Profile] or [Put] *)
  facts : facts;
}

val handle_line :
  t ->
  stats:(unit -> Ogc_json.Json.t) ->
  trace:(unit -> Ogc_json.Json.t) ->
  ?finish:(string -> float -> unit) ->
  (request -> string) ->
  string ->
  string
(** [handle_line t ~stats ~trace handler line] is the reply to [line]
    (neither has a newline).  [stats] and [trace] give those replies'
    [result]; [finish op seconds] runs last, with the op's name
    (["invalid"] when the line did not parse) and the line's duration. *)

val count_error : t -> unit
(** Count an error reply the handler built itself. *)

val requests : t -> int
val errors : t -> int

val record_latency : t -> float -> int
(** [record_latency t t0] adds the time since the {!Ogc_obs.Clock}
    reading [t0] to the 1024-entry latency window; returns how many
    latencies have been added so far. *)

val percentile_ms : t -> float -> float
(** Nearest-rank percentile of the window; [0.0] while it is empty. *)

val latency_json : t -> Ogc_json.Json.t
(** [{"count","p50","p95"}] of the window, for [stats]. *)

val record :
  t -> op:string -> ?id:string -> facts -> outcome:string -> ms:float ->
  unit
(** A flight record for work outside a request line (the server's
    background respecialization). *)

val install_sigusr1 : unit -> unit
(** Route SIGUSR1 to a {!Ogc_obs.Flight} NDJSON dump on stderr (no-op
    where the signal does not exist). *)
