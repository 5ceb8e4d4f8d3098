(** Streamed execution profiles — the payload of the server's `profile`
    op and the input profile-dependent passes consume in place of their
    training interpreter runs.

    A profile carries basic-block execution counts (keyed by function,
    indexed by block label), per-instruction TNV-style (value, count)
    observations, and per-instruction always-zero observation counts.
    Instruction ids refer to the program as submitted.  The JSON codec
    serves both client deltas and accumulated snapshots; TNV values
    travel as decimal strings so full-width int64s survive JSON. *)

module Interp = Ogc_ir.Interp
module J = Ogc_json.Json

type t = {
  mutable p_epoch : int;  (** 0 = no profile pushed yet *)
  p_bb : Interp.bb_counts;
  mutable p_total : int;  (** total dynamic instructions behind [p_bb] *)
  p_values : (int, (int64 * int) list) Hashtbl.t;
  p_zeros : (int, int) Hashtbl.t;
}

val create : unit -> t
val epoch : t -> int

val copy : t -> t
(** Deep copy; the server's profile store merges each push into one, so
    a profile a request consumes is never written again. *)

val values_table : t -> (int, (int64 * int) list) Hashtbl.t
(** Per-candidate observations for {!Ogc_core.Vrs.analyze}'s [values]
    input, with the always-zero table folded in as (0, count) entries. *)

val merge_into : t -> t -> unit
(** [merge_into dst delta] accumulates counts; epochs are the caller's
    concern and are not touched. *)

val collect : Ogc_ir.Prog.t -> t
(** [collect p] is the delta a client streams back after running [p]
    (already at the input scale it wants profiled; [p] is not
    modified): block counts and the values observed at the profiling
    points {!Ogc_core.Vrs.analyze} picks, one interpreter run, epoch 0.
    A point that observed only zeros lands in the always-zero table.
    [ogc submit --push-profile auto] sends exactly this. *)

val to_json : t -> J.t

exception Malformed of string

val of_json : J.t -> t
(** Raises {!Malformed} on a shape violation: a value that is not an
    object, or a member of the wrong shape (the message names it). *)
