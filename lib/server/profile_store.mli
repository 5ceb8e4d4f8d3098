(** Per-program accumulated execution profiles behind the server's
    [profile] op.

    Keyed by {!Protocol.route_key} (the program-identity digest), so all
    option variants of one program share a single accumulated profile.
    Each push merges a client delta into a copy of the program's
    profile, bumps the copy's epoch — the monotone counter that salts
    profile-dependent artifact addresses — and publishes it in place of
    the old value, which is never written again.
    Bounded, with exact LRU eviction over programs ({!Ogc_exec.Lru}):
    a push or a lookup refreshes its program, so a program still in use
    keeps its profile.  An evicted program's next push starts again at
    epoch 1; each eviction logs one warn line with the route key and
    the dropped epoch.  Thread-safe. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 256 programs. *)

val push : t -> string -> Ogc_pass.Profile.t -> int
(** [push t route_key delta] publishes the program's profile with
    [delta] accumulated and returns its new (strictly increased)
    epoch. *)

val find : t -> string -> Ogc_pass.Profile.t option
(** The published profile, shared: no push writes to it, so its epoch
    and counts stay as found, and the caller must not write to it
    either.  Refreshes the program's recency. *)

val stats : t -> int * int * int
(** [(programs, pushes, evictions)]: programs held now, pushes and
    evicted programs since {!create}. *)
