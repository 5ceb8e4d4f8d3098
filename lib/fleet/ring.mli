(** Consistent-hash ring over shard names.

    Each shard owns [vnodes] pseudo-random points on a 64-bit ring
    (MD5-derived, so the placement is deterministic across processes and
    OCaml versions); a key is owned by the shard of the first point at
    or after the key's own hash, wrapping at the top.  Virtual nodes
    smooth the ownership distribution: with the default 128 points per
    shard the largest shard's share stays within a small constant factor
    of the mean (qcheck-tested).

    The structural guarantee (also qcheck-tested) is {e minimal key
    movement}: adding a shard only moves keys {e to} the new shard
    ([lookup (add r s) k] is [lookup r k] or [s]), and removing one only
    moves the keys it owned.  Every other key keeps its shard, which is
    what makes resizing a fleet cheap — only the stolen slice of each
    cache goes cold.

    Rings are immutable; {!add} and {!remove} return new rings. *)

type t

val create : ?vnodes:int -> string list -> t
(** [create shards] builds a ring over the (deduplicated) shard names.
    [vnodes] defaults to 128 points per shard.  Raises [Invalid_argument]
    on an empty shard list or a non-positive [vnodes]. *)

val shards : t -> string list
(** Member shards, sorted. *)

val add : t -> string -> t
(** Ring with one more shard (no-op if already a member). *)

val remove : t -> string -> t
(** Ring without [shard].  Raises [Invalid_argument] when removing the
    last shard. *)

val lookup : t -> string -> string
(** Owner shard of a key. *)

val successors : t -> string -> int -> string list
(** [successors t key n]: up to [n] {e distinct} shards in ring order
    starting at the key's owner — the owner first, then the replica
    candidates.  [n] larger than the shard count returns every shard. *)
