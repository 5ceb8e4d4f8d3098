(** MiniC front end: one-call compilation to the Alpha-like IR. *)

(** Compilation error with a human-readable message (includes source
    position when available). *)
exception Error of string

val parse : string -> Ast.program
(** Parse and semantically check; raises {!Error}. *)

val lower : string -> Ogc_ir.Prog.t
(** Parse, check and generate code over virtual registers; the result
    passes {!Ogc_ir.Validate.program} with [~allow_virtual:true] but is
    not yet register-allocated.  Records a [minic:lower] span.  Raises
    {!Error}. *)

val compile_with_info : string -> Ogc_ir.Prog.t * Ogc_regalloc.Regalloc.info
(** {!lower}, then graph-coloring register allocation with width-aware
    spill slots (backed by {!Ogc_core.Vrp.ranges}, run lazily on the
    pre-allocation program when some function spills), then validation.
    Records a [minic:lower] span and a [regalloc] span; a forced width
    oracle's [vrp:ranges] span nests under [regalloc].  Returns the
    executable program together with the allocation summary (spill
    slots, spill-op instruction ids, iteration counts).  Raises
    {!Error}. *)

val compile : string -> Ogc_ir.Prog.t
(** [fst (compile_with_info src)]. *)
