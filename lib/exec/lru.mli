(** Bounded map with exact least-recently-used eviction.

    The one eviction mechanism of the service's caches and indexes: the
    result cache's memory tier, the pass store, the profile store, the
    server's stale-answer index and the router's hot-key table.  A hash
    table maps each key to its node in a doubly linked recency list, so
    every operation is O(1).

    Unsynchronized: each owner guards its map with its own lock. *)

type ('k, 'v) t

val create : int -> ('k, 'v) t
(** [create capacity]: an empty map holding at most [capacity] bindings
    (clamped to at least 1). *)

val capacity : ('k, 'v) t -> int

val length : ('k, 'v) t -> int

val find : ('k, 'v) t -> 'k -> 'v option
(** The key's binding, which becomes the most recently used. *)

val mem : ('k, 'v) t -> 'k -> bool
(** Whether the key is bound; recency is left as it was. *)

val add : ('k, 'v) t -> 'k -> 'v -> ('k * 'v) option
(** [add t k v] binds [k] to [v] as the most recently used binding,
    replacing a previous binding of [k].  When [k] is new and the map is
    full, the least recently used binding is evicted first and returned. *)

val remove : ('k, 'v) t -> 'k -> unit
(** Drop the key's binding, if any.  Not an eviction. *)

val evictions : ('k, 'v) t -> int
(** Bindings {!add} has evicted since {!create}. *)
