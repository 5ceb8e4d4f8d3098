(** Per-program accumulated execution profiles behind the server's
    [profile] op.

    Keyed by {!Protocol.route_key} (the program-identity digest), so all
    option variants of one program share a single accumulated profile.
    Each push merges a client delta and bumps the program's epoch — the
    monotone counter that salts profile-dependent artifact addresses.
    Bounded; FIFO eviction over programs.  Thread-safe. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 256 programs. *)

val push : t -> string -> Ogc_pass.Profile.t -> int
(** [push t route_key delta] accumulates [delta] and returns the
    program's new (strictly increased) epoch. *)

val find : t -> string -> Ogc_pass.Profile.t option
(** A deep copy of the accumulated profile (never the accumulator
    itself — pushes keep mutating that). *)

val stats : t -> int * int
(** [(programs, pushes)] since {!create}. *)
