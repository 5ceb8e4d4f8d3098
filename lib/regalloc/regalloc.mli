(** Graph-coloring register allocation with iterated spilling.

    Consumes the virtual-register programs produced by the MiniC code
    generator and assigns every temporary an architectural register, in
    the style of iterated register coalescing: build the interference
    graph from {!Ogc_ir.Liveness}, simplify, coalesce moves under the
    George/Briggs conservative tests, freeze, select potential spills,
    color optimistically, and — when a temporary receives no color —
    rewrite it through a stack slot and repeat to a fixpoint.

    Spill slots are width-aware: each slot is sized from the proven
    value range of the spilled temporary's definitions (the [width_of]
    callback, which [Ogc_minic.Minic] backs with the ranges-only VRP,
    [Ogc_core.Vrp.ranges], on the pre-allocation program), so spill
    stores and reloads move only the live bytes.  Reloads are signed
    and ranges are measured with the signed width, so narrow negative
    values round-trip exactly.

    The allocator also finalizes frames: the code generator emits stack
    adjustment only for its array area, and this module re-sizes it to
    cover spill slots and callee-saved save slots, inserting the
    save/restore sequences at function entry and every return. *)

open Ogc_isa
open Ogc_ir

exception Bound_exceeded of { fname : string; iterations : int }
(** Raised when a function fails to color within the iteration budget.
    Distinct from [Ogc_minic.Codegen.Codegen_bug]: it reports an
    allocator divergence, not a lowering bug. *)

(** One spill slot: the spilled virtual register, its offset from the
    bottom of the frame's spill area, and its width-aware size. *)
type slot = { sreg : Reg.t; soffset : int; sbytes : int }

type func_alloc = {
  fa_name : string;
  fa_slots : slot list;  (** in slot-offset order *)
  fa_spill_area : int;  (** bytes of spill area, 8-byte aligned *)
  fa_callee_saved : Reg.t list;  (** callee-saved registers save/restored *)
  fa_iterations : int;  (** coloring rounds, 1 = no spilling needed *)
}

type info = {
  fallocs : func_alloc list;
  spill_ops : (int, int) Hashtbl.t;
      (** iid of every inserted spill store/reload, mapped to the bytes
          it moves; feeds the dynamic spill-traffic series. *)
}

val num_colors : int
(** Size of the allocatable palette: the 32 architectural registers
    minus [sp], [zero] and the two registers reserved as VRS guard
    scratch. *)

val spill_slots_bytes : info -> int
(** Total bytes of width-aware spill slots across the program. *)

val spill_slots_naive_bytes : info -> int
(** What the same slots would occupy at a uniform 8 bytes each. *)

val program :
  ?max_iterations:int ->
  ?check:bool ->
  width_of:(int -> Width.t) ->
  Prog.t ->
  info
(** Allocate every function of [p] in place.  [width_of iid] is the
    proven signed width of the value defined at [iid] (W64 when
    unknown); it is consulted only when a spill slot is created, so a
    lazily forced VRP result behaves well.  [max_iterations] (default
    12) bounds build/color/rewrite rounds per function; exceeding it
    raises {!Bound_exceeded}.  [check] (default false, for tests)
    re-derives liveness after coloring and raises [Invalid_argument] if
    any two interfering registers were assigned the same architectural
    register.  On return no virtual register remains and every frame is
    finalized. *)

val pp_info : Format.formatter -> info -> unit
