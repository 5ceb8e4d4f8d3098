(** Use-def and def-use chains via reaching definitions.

    This is the expanded use-def machinery the paper added to Alto: the
    register-level data-dependence graph over which forward and backward
    value-range traversals run, and over which VRS finds the instructions
    transitively dependent on a candidate.

    A {e definition} is either a body instruction writing a register (keyed
    by its [iid]; a [Call] yields one definition per clobbered register) or
    the pseudo-definition of a register at function entry (incoming
    arguments, callee-saved contents, ...).

    A {e use site} is a body instruction reading a register, or a block
    terminator reading its tested register (keyed by the terminator's
    [iid]). *)

open Ogc_isa

type def_site = Entry | At of int  (** [At iid] *)

type def = { dreg : Reg.t; site : def_site }

type t

val compute : Prog.func -> Cfg.t -> t
(** The chains of one function, in tables sized by its own instruction,
    use and def counts.  Each call counts one [ogc_usedef_runs_total]. *)

val num_defs : t -> int
val def : t -> int -> def

(** [defs_of_ins t iid] is the list of definition indices made by
    instruction [iid]. *)
val defs_of_ins : t -> int -> int list

(** [reaching_uses t ~use_iid ~reg] is the set of definition indices that
    may supply register [reg] at instruction (or terminator) [use_iid]. *)
val reaching_uses : t -> use_iid:int -> reg:Reg.t -> int list

(** [uses_of_def t d] is the list of [(use_iid, reg)] sites that may read
    definition [d]. *)
val uses_of_def : t -> int -> (int * Reg.t) list

(** [dependents t ~iid] is the set of iids of instructions (including
    terminators) transitively data-dependent on any definition made by
    [iid], within the function.  [iid] itself is not included unless it
    depends on itself through a cycle. *)
val dependents : t -> iid:int -> (int, unit) Hashtbl.t
