(** The opcode space.

    The paper's premise is that "the ISA contains opcodes that specify
    operand lengths"; §4.3 analyzes which width-variant opcodes must be
    {e added} to the Alpha ISA to support VRP (byte and halfword addition,
    byte subtraction, byte and word logicals, shifts, conditional moves
    and comparisons).  This module makes the opcode space concrete: every
    (operation, width) pair used by the IR gets a numeric opcode.  It
    exists for opcode accounting (§4.3, the opcode-budget table), for the
    pipeline model's per-opcode counters, and to pin the opcode budget
    (how much opcode space software operand-gating costs). *)

type opcode = private int

(** [opcode_of i] is the numeric opcode of instruction [i] —
    operation and width included ([add8] and [add16] differ). *)
val opcode_of : Instr.t -> opcode

val opcode_to_int : opcode -> int

val opcode_of_int : int -> opcode
(** Raises [Invalid_argument] outside the opcode space. *)

(** [mnemonic op] is the assembly mnemonic of an opcode
    (e.g. ["add8"], ["ld32"], ["cmovne16"]). *)
val mnemonic : opcode -> string

(** All opcodes of the ISA, with their mnemonics, in numeric order. *)
val all_opcodes : (opcode * string) list

(** [base_alpha op] is [true] when the Alpha ISA already provides the
    opcode (64-bit operates, 32-bit arithmetic, all memory widths,
    mask/extract, 64-bit compares/cmovs); [false] for the paper's §4.3
    extension opcodes. *)
val base_alpha : opcode -> bool
