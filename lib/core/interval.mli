(** Signed 64-bit value intervals — the abstract domain of VRP (paper §2).

    An interval [\[lo, hi\]] ([lo <= hi] as signed 64-bit integers)
    over-approximates the set of values a register may hold.  All transfer
    functions are {e conservative}: every concrete result of the modelled
    operation on values drawn from the input intervals lies in the result
    interval.  When an operation at width [w] may overflow [w] bits, the
    result widens to the full signed range of [w] — the paper's wrap-around
    rule (§2.2.1): "if overflow is possible then the calculated range takes
    the wrap around behavior into account".

    The soundness property is checked exhaustively by property-based tests:
    for every operation [op] and all [a ∈ ia], [b ∈ ib],
    [Instr.eval_alu op w a b ∈ forward op w ia ib]. *)

open Ogc_isa

type t = private { lo : int64; hi : int64 }

val v : int64 -> int64 -> t
(** [v lo hi]; raises [Invalid_argument] when [lo > hi]. *)

val top : t
(** The full signed 64-bit range. *)

val const : int64 -> t
val bool : t
(** [\[0, 1\]], the range of compare results. *)

val is_const : t -> int64 option
val equal : t -> t -> bool
val contains : t -> int64 -> bool
val subset : t -> t -> bool

val full : Width.t -> t
(** Full signed range of a width. *)

val unsigned_max : Width.t -> int64
(** [2^bits - 1] for sub-64-bit widths; [Int64.max_int] for [W64]. *)

val join : t -> t -> t
val meet : t -> t -> t option
(** [None] when the intersection is empty. *)

val width : t -> Width.t
(** Narrowest two's-complement width whose signed range covers the
    interval. *)

val width_unsigned : t -> Width.t
(** Narrowest width [w] with the interval inside [\[0, 2^(bits w) - 1\]]
    — every member recoverable from its low [w] bits by
    {e zero}-extension; [W64] when the interval admits negatives. *)

(** {1 Forward transfer functions}

    Each takes the operation width and the input intervals, in instruction
    operand order. *)

val forward_alu : Instr.alu_op -> Width.t -> t -> t -> t

val forward_cmp : t
(** Compares produce [\[0,1\]]. *)

val forward_cmp_op : Instr.cmp_op -> Width.t -> t -> t -> t
(** Like {!forward_cmp} but collapses to a constant when the operand
    ranges decide the comparison (e.g. [\[0,5\] < \[9,9\]] is always 1) —
    this is what lets constant propagation fold guard branches inside
    specialized regions. *)

val forward_msk : Width.t -> t -> t
val forward_sext : Width.t -> t -> t
val forward_load : Width.t -> signed:bool -> t
val forward_cmov : Width.t -> old:t -> src:t -> t
(** Join of the (truncated) moved value and the preserved old value. *)

(** {1 Branch refinement support} *)

val refine_cond : Instr.cond -> t -> taken:bool -> t option
(** Range of a register tested against zero by a conditional branch, on
    the taken (condition holds) or fall-through edge. *)

val refine_cmp_lhs : Instr.cmp_op -> Width.t -> lhs:t -> rhs:t -> holds:bool -> t option
(** Refine the left operand of a compare known to evaluate to
    [holds], when both operand ranges fit in the compare width.  Unsigned
    compares refine only when both sides are known non-negative. *)

val refine_cmp_rhs : Instr.cmp_op -> Width.t -> lhs:t -> rhs:t -> holds:bool -> t option

val pp : Format.formatter -> t -> unit
val to_string : t -> string
