(** Per-program accumulated execution profiles behind the server's
    [profile] op.

    Keyed by {!Protocol.route_key} (the program-identity digest), so all
    option variants of one program share a single accumulated profile.
    Each push merges a client delta and bumps the program's epoch — the
    monotone counter that salts profile-dependent artifact addresses.
    Bounded, with exact LRU eviction over programs ({!Ogc_exec.Lru}):
    a push or a lookup refreshes its program, so a program still in use
    keeps its profile.  An evicted program's next push starts again at
    epoch 1; each eviction logs one warn line with the route key and
    the dropped epoch.  Thread-safe. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 256 programs. *)

val push : t -> string -> Ogc_pass.Profile.t -> int
(** [push t route_key delta] accumulates [delta] and returns the
    program's new (strictly increased) epoch. *)

val find : t -> string -> Ogc_pass.Profile.t option
(** A deep copy of the accumulated profile (never the accumulator
    itself — pushes keep mutating that).  Refreshes the program's
    recency. *)

val stats : t -> int * int * int
(** [(programs, pushes, evictions)]: programs held now, pushes and
    evicted programs since {!create}. *)
