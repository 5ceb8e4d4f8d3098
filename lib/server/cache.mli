(** Content-addressed analysis cache.

    Keys are MD5 digests of the canonical request (program payload +
    options + analyzer version — see {!Protocol.cache_key}); values are
    the serialized result payloads, byte-identical on every hit.  Two
    tiers:

    - an in-memory tier bounded by [capacity], an exact LRU
      ({!Ogc_exec.Lru}): a hit refreshes its entry, and a store into a
      full tier evicts the least recently used entry;
    - optionally, one file per entry under [dir] ([<digest>.json],
      written atomically via rename), so a restarted server — or another
      server sharing the directory — rehydrates results it has never
      computed.  Disk lookups count as hits and promote the entry back
      into memory.  The disk tier is best-effort: a read that fails is a
      miss and a write that fails keeps the memory entry; each failure
      is logged at warn with its path and counted in
      [ogc_cache_disk_errors_total].

    All operations are thread-safe (one mutex; no I/O is performed while
    other threads are blocked on an analysis). *)

type t

type stats = {
  entries : int;  (** in-memory entries right now *)
  capacity : int;
  hits : int;  (** includes disk hits *)
  misses : int;
  evictions : int;  (** LRU evictions from the memory tier *)
  disk_hits : int;
  mem_bytes : int;  (** Σ payload bytes held in the memory tier *)
  disk_entries : int;  (** entry files currently under [dir] *)
  disk_bytes : int;  (** Σ file sizes under [dir] (0 without a dir) *)
}

val key_of_string : string -> string
(** MD5 hex digest of a canonical request string. *)

val create : ?capacity:int -> ?dir:string -> unit -> t
(** [capacity] defaults to 256 entries (clamped to at least 1).  [dir]
    enables the persistent tier; it is created if missing. *)

val find : t -> string -> string option
(** Memory first, then disk; updates hit/miss counters and recency. *)

val find_uncounted : t -> string -> string option
(** {!find} that leaves the hit/miss counters (and
    [ogc_cache_hits_total]/[ogc_cache_misses_total]) as they are.  The
    server's stale answers look up with it: the server's [stats] count
    them once, as [profile.stale_served]. *)

val store : t -> string -> string -> unit
(** Idempotent: re-storing an existing key keeps the first value. *)

val stats : t -> stats
