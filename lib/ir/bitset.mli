(** Fixed-capacity mutable bitsets for dataflow. *)

type t

val create : int -> t
(** All bits clear. *)

val copy : t -> t
val length : t -> int
val set : t -> int -> unit
val clear : t -> int -> unit
val mem : t -> int -> bool

val reset : t -> unit
(** Clear every bit, in place. *)

(** [copy_into ~into src] overwrites [into] with [src]'s bits.  The two
    sets must have the same capacity. *)
val copy_into : into:t -> t -> unit

(** [union_into ~into src] ors [src] into [into]; returns [true] when
    [into] changed. *)
val union_into : into:t -> t -> bool

(** [diff_into ~into src] removes [src]'s bits from [into]. *)
val diff_into : into:t -> t -> unit

val equal : t -> t -> bool
val iter : t -> (int -> unit) -> unit

(** [iter_inter a b k] calls [k] on every element of both [a] and [b],
    ascending, without building the intersection. *)
val iter_inter : t -> t -> (int -> unit) -> unit
val elements : t -> int list
val cardinal : t -> int
