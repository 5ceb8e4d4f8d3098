(** Constant propagation, branch folding and dead-code elimination.

    Runs on top of a {!Vrp} analysis: any instruction whose output range
    collapsed to a single value becomes a load-immediate, constant second
    operands fold into immediates, branches whose condition is known
    fold to jumps, and pure instructions with no remaining uses are
    removed.  VRS relies on this to realize the paper's §3.4 observation
    that single-value specialization plus constant propagation removes
    instructions from the specialized code. *)

open Ogc_ir

type stats = {
  folded_to_const : int;  (** instructions rewritten to [Li] *)
  folded_operands : int;  (** register operands rewritten to immediates *)
  folded_branches : int;  (** conditional branches rewritten to jumps *)
  removed : int;  (** dead pure instructions deleted *)
  removed_iids : int list;  (** ids of the deleted instructions *)
}

val run : Vrp.result -> Prog.t -> stats
(** Transforms [prog] in place.  The result still passes
    {!Ogc_ir.Validate.program} and computes the same checksum. *)

val dce : Prog.func -> int list
(** [dce f] deletes [f]'s dead pure instructions in place, round by
    round, until a round removes nothing or 10 rounds have run, and
    returns their ids, the last removed first.  An instruction is dead
    when no definition it makes reaches a use; stack-pointer and
    return-value defs and callee-saved restores are never removed.
    {!run} applies it to every function after folding. *)
