(** Program representation: functions of basic blocks.

    This plays the role that Alto's internal representation plays in the
    paper: a binary-level control-flow-graph form on which the value-range
    passes operate and from which the interpreter and the timing model
    execute.

    Every instruction — including each block's terminator — carries a
    program-unique instruction id ([iid]).  Ids survive re-encoding (VRP
    width assignment mutates instructions in place) and are duplicated
    afresh when VRS clones a region, so profile data and analysis facts can
    be keyed by id. *)

open Ogc_isa

(** An instruction with its program-unique id. *)
type ins = { iid : int; mutable op : Instr.t }

type terminator =
  | Jump of Label.t
  | Branch of {
      cond : Instr.cond;
      src : Reg.t;
      if_true : Label.t;
      if_false : Label.t;
    }  (** Alpha-style conditional branch: test [src] against zero. *)
  | Return  (** return value, if any, is in [Reg.ret] *)

type block = {
  label : Label.t;
  mutable body : ins array;
  mutable term : terminator;
  term_iid : int;
}

type func = {
  fname : string;
  arity : int;  (** number of register arguments, at most [Reg.num_arg_regs] *)
  mutable blocks : block array;  (** [blocks.(0)] is the entry block *)
  frame_size : int;  (** stack frame size in bytes *)
}

(** An initialized global data object.  [init] is its little-endian image;
    its length is the object's size in bytes. *)
type global = { gname : string; init : Bytes.t }

type t = {
  mutable funcs : func list;
  globals : global list;
  mutable next_iid : int;
}

val create : ?globals:global list -> func list -> t
(** Numbers [next_iid] past every id already present. *)

val max_reg_of_func : func -> int
(** Highest register index named by any instruction or terminator of the
    function, at least [Reg.num_arch - 1].  Exceeds [Reg.num_arch - 1]
    only for pre-allocation programs that still use virtual registers. *)

val max_reg : t -> int
(** [max_reg_of_func] over every function; sizes dynamic register files. *)

val fresh_iid : t -> int

val copy : t -> t
(** Deep copy: instruction ids, labels and global images are preserved,
    and no mutable state is shared, so transforming the copy in place
    never disturbs the original.  The experiment harness uses this to
    compile each workload once and hand every binary-version task its own
    private program. *)

val find_func : t -> string -> func
(** Raises [Not_found]. *)

val find_func_opt : t -> string -> func option
val find_global : t -> string -> global option

val block : func -> Label.t -> block

val append_block : func -> body:ins array -> term:terminator -> term_iid:int -> Label.t
(** Adds a new block at the end of [blocks] and returns its label. *)

(** {1 Iteration} *)

val iter_blocks : func -> (block -> unit) -> unit
val iter_ins : func -> (block -> ins -> unit) -> unit
val iter_all_ins : t -> (func -> block -> ins -> unit) -> unit

val num_static_ins : t -> int
(** Static instruction count including terminators. *)

val static_widths : t -> (Width.t * int) list
(** Body instructions per operation width, one entry for each of
    {!Width.all} in its order (a width no instruction uses counts 0). *)

(** {1 Instruction lookup} *)

val ins_table : t -> (int, func * block * ins) Hashtbl.t
(** Index from iid to its definition site (body instructions only). *)

(** {1 Printing} *)

val pp_terminator : Format.formatter -> terminator -> unit
val pp_func : Format.formatter -> func -> unit
val pp : Format.formatter -> t -> unit
