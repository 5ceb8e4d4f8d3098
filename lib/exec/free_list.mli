(** Bounded free list of reusable buffers.

    The one reuse mechanism of the simulator's per-run state: the
    interpreter's flat memory and the timing model's reservation rings.
    A run takes a buffer that fits, uses it, restores it to its pristine
    state and hands it back, so a run allocates nothing whose size
    depends on the machine.

    Safe across threads and domains (one mutex, held only while a
    buffer is taken off the list or put back).  A run in progress owns its buffer, so concurrent and
    nested runs (a hook that starts another run) each get their own. *)

type 'a t

val create : unit -> 'a t
(** An empty list.  It keeps at most 8 idle buffers: a buffer handed
    back to a full list replaces the oldest idle one, which the GC then
    reclaims. *)

val with_ :
  'a t ->
  fits:('a -> bool) ->
  make:(unit -> 'a) ->
  reset:('a -> unit) ->
  ('a -> 'b) ->
  'b
(** [with_ t ~fits ~make ~reset f] runs [f] on the most recently handed
    back idle buffer for which [fits] holds, or on [make ()] when none
    does.  On every exit of [f], a return or an exception, [reset]
    restores the buffer to the state [make] gives and the buffer goes
    back on the list; the exception then propagates. *)
