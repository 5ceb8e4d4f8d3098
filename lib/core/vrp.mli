(** Value Range Propagation (paper §2).

    A flow-sensitive, interprocedural interval analysis over the binary-
    level IR, followed by a backward {e useful-width} (demand) analysis and
    a width-assignment / re-encoding step:

    - {b Initial ranges} (§2.1) come from narrow opcodes already in the
      binary (byte/halfword/word loads and stores, [W32] arithmetic),
      immediate moves, and branch conditions.
    - {b Forward propagation} (§2.2) pushes ranges through every transfer
      function of {!Interval}, joining over control-flow predecessors;
      branch conditions refine the tested register — and, by pattern
      matching a compare feeding the branch, the compared registers — on
      each outgoing edge (§2.2.4).  Two's-complement wrap-around widens a
      result to the full range of the operation width (§2.2.1).
    - {b Loops} (§2.3): instead of the paper's syntactic [x = ax+b] trip
      count, the engine applies directional widening at join points after
      three visits and then re-narrows; combined with branch
      refinement this yields the paper's example result (iterator
      [<0,99>] inside a [for (i=0;i<100;i++)] loop) while also covering
      loops the syntactic method gives up on.
    - {b Interprocedural propagation} (§2.4): callee return ranges are
      summarized bottom-up over the call graph, argument-register ranges
      top-down from call sites; recursion falls back to ⊤.  Ranges are
      not propagated through memory.
    - {b Useful ranges} (§2.2.5): a backward demand analysis computes, for
      every definition, the widest low-bit slice any semantically relevant
      use can observe (AND masks, [Msk]/[Sext], store widths, shift
      amounts).  Demand propagates through logical operations always, and
      through wrapping arithmetic only when [useful_through_arith] is set
      (the paper forbids it; it is sound in this IR because the low [k]
      bits of add/sub/mul/shift-left depend only on the low [k] bits of
      the inputs — kept as an ablation).
    - {b Width assignment}: each re-encodable instruction gets the
      narrowest width in {8,16,32,64} that preserves the semantics of its
      (already encoded) width: value-determined operations (compare,
      divide, right shift) need every live input and the output to fit;
      low-bit-determined operations only need the output's useful width.
      Memory operation widths are fixed by data layout and never change. *)

open Ogc_isa
open Ogc_ir

(** A range assumption installed at a block entry (used by VRS to inject
    the guard-established range into a specialized clone). *)
type assumption = {
  af : string;  (** function name *)
  alabel : Label.t;
  areg : Reg.t;
  arange : Interval.t;
}

type config = {
  useful : bool;
      (** enable useful-range backward propagation (the "Proposed VRP" of
          Figure 2); [false] gives the conventional VRP baseline *)
  useful_through_arith : bool;
      (** let demand flow through wrapping arithmetic (default [true];
          [false] is the paper-literal ablation) *)
  assumptions : assumption list;
}

val default_config : config
val conventional_config : config

type result

(** Fixpoint iteration strategy.  [Dense] (the default) is a priority
    worklist over int-indexed per-block state buffers, ordered by reverse
    postorder — a topological order of the SCC condensation — with a round
    barrier that makes it sweep-equivalent to [Naive]; acyclic regions
    converge in one visit.  Its per-block states carry only the
    function's block-crossing registers (read somewhere before being
    written in the same block, read by a terminator or an edge
    refinement, or constrained by an assumption); every other register
    lives in one scratch array during a block's transfer.  [Naive] is the
    retained reference engine: full reverse-postorder sweeps until
    quiescence over the full register state.  Both produce bit-identical
    results; the property tests check it. *)
type engine = Dense | Naive

(** Fixpoint effort: [visits] counts block processings with a non-⊥ input
    during ascending iteration, [rounds] counts worklist rounds (sweeps),
    summed over every function and interprocedural round. *)
type fixpoint_stats = { visits : int; rounds : int }

(** Function-granular memo of the final recorded pass, shared across
    whole-program runs.  Per function, that pass is a pure function of
    the function's code and its analysis inputs (argument ranges, each
    callee's visible return range, resolvable global addresses, config
    and engine); the cache keys a positional fragment of the recorded
    facts by a digest of exactly those inputs, rendered through the
    iid-free assembly printer — so a fragment survives the program-wide
    instruction renumbering an edit of an {e unrelated} function
    causes, and a changed or re-profiled function re-runs alone.  The
    interprocedural summary rounds always run (they are whole-program
    and feed the digests).  Results with and without a cache are
    bit-identical, [fixpoint_stats] included.  Thread-safe; bounded
    (FIFO eviction). *)
module Fn_cache : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Default capacity: 4096 function fragments. *)

  val stats : t -> int * int
  (** [(hits, runs)]: fragment replays vs. live per-function final
      passes since {!create}. *)
end

(** [analyze ?config ?engine ?jobs ?fn_cache prog] runs the analysis;
    [prog] is not modified.  [jobs] parallelizes the per-function
    analyses over domains (default 1; [0] means auto); results are
    identical at any value.  [fn_cache] memoizes the per-function final
    pass across runs (see {!Fn_cache}). *)
val analyze :
  ?config:config ->
  ?engine:engine ->
  ?jobs:int ->
  ?fn_cache:Fn_cache.t ->
  Prog.t ->
  result

(** [ranges prog] runs the forward analysis alone, with the default
    config, the [Dense] engine and one job: the interprocedural summary
    rounds and the final recorded pass, but neither the demand analysis
    nor width assignment.  The result answers {!range_of},
    {!input_ranges_of}, {!return_range} and {!fixpoint_stats} exactly as
    [analyze prog] would; {!useful_width_of} and {!width_of} answer
    [None].  Records a [vrp:ranges] span.  This is the spill-slot width
    oracle of register allocation. *)
val ranges : Prog.t -> result

(** [range_of result iid] is the interval of the value produced by
    instruction [iid] ([None] for instructions producing no value or
    never analyzed). *)
val range_of : result -> int -> Interval.t option

(** [useful_width_of result iid] is the demanded width of [iid]'s output. *)
val useful_width_of : result -> int -> Width.t option

(** [width_of result iid] is the width the instruction would be re-encoded
    with (its original width when it cannot be narrowed). *)
val width_of : result -> int -> Width.t option

(** [apply result prog] re-encodes every narrowable instruction in place
    with its assigned width.  Semantics are preserved (the test suite
    checks checksum equality on every workload). *)
val apply : result -> Prog.t -> unit

(** [run ?config ?jobs ?fn_cache prog] = [analyze] + [apply]; returns
    the result. *)
val run :
  ?config:config -> ?jobs:int -> ?fn_cache:Fn_cache.t -> Prog.t -> result

(** {1 Introspection for tests and reports} *)

val input_ranges_of : result -> int -> (Interval.t * Interval.t) option
(** Ranges of the two source operands at the instruction, in operand
    order, at the time of the final pass. *)

val return_range : result -> string -> Interval.t option
(** Summarized return-value range of a function. *)

val fixpoint_stats : result -> fixpoint_stats
(** Iteration effort of the analysis that produced [result]. *)

val defs_analyzed : result -> int
(** Number of instructions with a recorded range. *)

val pp_summary : Format.formatter -> result -> unit
