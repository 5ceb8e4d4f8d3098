type opcode = int

(* --- opcode numbering ------------------------------------------------------

   Dense, systematic numbering: operations enumerate their width variants
   contiguously so [base_alpha] and the §4.3 accounting can reason about
   (operation, width) pairs. *)

let alu_ops =
  [ Instr.Add; Instr.Sub; Instr.Mul; Instr.Div; Instr.Rem; Instr.And;
    Instr.Or; Instr.Xor; Instr.Bic; Instr.Sll; Instr.Srl; Instr.Sra ]

let cmp_ops = [ Instr.Ceq; Instr.Clt; Instr.Cle; Instr.Cult; Instr.Cule ]

let conds = [ Instr.Eq; Instr.Ne; Instr.Lt; Instr.Le; Instr.Gt; Instr.Ge ]

let width_index = function
  | Width.W8 -> 0
  | Width.W16 -> 1
  | Width.W32 -> 2
  | Width.W64 -> 3

let width_of_index = function
  | 0 -> Width.W8
  | 1 -> Width.W16
  | 2 -> Width.W32
  | 3 -> Width.W64
  | i -> Fmt.invalid_arg "Encoding: width index %d" i

let index_of lst x =
  let rec go i = function
    | [] -> invalid_arg "Encoding.index_of"
    | y :: rest -> if y = x then i else go (i + 1) rest
  in
  go 0 lst

(* Opcode space layout. *)
let alu_base = 0 (* 12 ops x 4 widths = 48 *)
let cmp_base = 48 (* 5 x 4 = 20 *)
let cmov_base = 68 (* 6 x 4 = 24 *)
let msk_base = 92 (* 4 *)
let sext_base = 96 (* 4 *)
let li_op = 100
let la_op = 101
let load_base = 102 (* width x signedness = 8 *)
let store_base = 110 (* 4 *)
let call_op = 114
let emit_op = 115
let num_opcodes = 116

let opcode_of (i : Instr.t) =
  match i with
  | Instr.Alu { op; width; _ } ->
    alu_base + (index_of alu_ops op * 4) + width_index width
  | Instr.Cmp { op; width; _ } ->
    cmp_base + (index_of cmp_ops op * 4) + width_index width
  | Instr.Cmov { cond; width; _ } ->
    cmov_base + (index_of conds cond * 4) + width_index width
  | Instr.Msk { width; _ } -> msk_base + width_index width
  | Instr.Sext { width; _ } -> sext_base + width_index width
  | Instr.Li _ -> li_op
  | Instr.La _ -> la_op
  | Instr.Load { width; signed; _ } ->
    load_base + (width_index width * 2) + if signed then 1 else 0
  | Instr.Store { width; _ } -> store_base + width_index width
  | Instr.Call _ -> call_op
  | Instr.Emit _ -> emit_op

let opcode_to_int op = op

let opcode_of_int i =
  if i < 0 || i >= num_opcodes then Fmt.invalid_arg "Encoding.opcode_of_int %d" i
  else i

let alu_name = function
  | Instr.Add -> "add"
  | Instr.Sub -> "sub"
  | Instr.Mul -> "mul"
  | Instr.Div -> "div"
  | Instr.Rem -> "rem"
  | Instr.And -> "and"
  | Instr.Or -> "or"
  | Instr.Xor -> "xor"
  | Instr.Bic -> "bic"
  | Instr.Sll -> "sll"
  | Instr.Srl -> "srl"
  | Instr.Sra -> "sra"

let cmp_name = function
  | Instr.Ceq -> "cmpeq"
  | Instr.Clt -> "cmplt"
  | Instr.Cle -> "cmple"
  | Instr.Cult -> "cmpult"
  | Instr.Cule -> "cmpule"

let cond_name = function
  | Instr.Eq -> "eq"
  | Instr.Ne -> "ne"
  | Instr.Lt -> "lt"
  | Instr.Le -> "le"
  | Instr.Gt -> "gt"
  | Instr.Ge -> "ge"

let mnemonic op =
  let w i = Width.to_string (width_of_index i) in
  if op >= alu_base && op < cmp_base then
    let k = op - alu_base in
    Printf.sprintf "%s%s" (alu_name (List.nth alu_ops (k / 4))) (w (k mod 4))
  else if op >= cmp_base && op < cmov_base then
    let k = op - cmp_base in
    Printf.sprintf "%s%s" (cmp_name (List.nth cmp_ops (k / 4))) (w (k mod 4))
  else if op >= cmov_base && op < msk_base then
    let k = op - cmov_base in
    Printf.sprintf "cmov%s%s" (cond_name (List.nth conds (k / 4))) (w (k mod 4))
  else if op >= msk_base && op < sext_base then
    Printf.sprintf "msk%s" (w (op - msk_base))
  else if op >= sext_base && op < li_op then
    Printf.sprintf "sext%s" (w (op - sext_base))
  else if op = li_op then "li"
  else if op = la_op then "la"
  else if op >= load_base && op < store_base then
    let k = op - load_base in
    Printf.sprintf "ld%s%s" (w (k / 2)) (if k mod 2 = 0 then "u" else "")
  else if op >= store_base && op < call_op then
    Printf.sprintf "st%s" (w (op - store_base))
  else if op = call_op then "call"
  else if op = emit_op then "emit"
  else Fmt.invalid_arg "Encoding.mnemonic: %d" op

let all_opcodes = List.init num_opcodes (fun op -> (op, mnemonic op))

(* Which (operation, width) pairs the Alpha ISA already provides:
   - all 64-bit operates, plus 32-bit add/sub/mul (addl/subl/mull);
   - logicals, shifts, compares and conditional moves at 64 bits only;
   - every memory width (LDBU/LDWU/LDL/LDQ and the stores);
   - byte/word mask-extract (MSKxL/EXTxL) at every granularity;
   - SEXTB/SEXTW (BWX) and the ADDL sign-extend idiom for 32 bits;
   - LDA/LDAH for immediates and addresses.
   Integer divide does not exist on Alpha at any width. *)
let base_alpha op =
  if op >= alu_base && op < cmp_base then begin
    let k = op - alu_base in
    let operation = List.nth alu_ops (k / 4) in
    let width = width_of_index (k mod 4) in
    match operation with
    | Instr.Add | Instr.Sub | Instr.Mul ->
      Width.equal width Width.W64 || Width.equal width Width.W32
    | Instr.And | Instr.Or | Instr.Xor | Instr.Bic | Instr.Sll | Instr.Srl
    | Instr.Sra -> Width.equal width Width.W64
    | Instr.Div | Instr.Rem -> false
  end
  else if op >= cmp_base && op < cmov_base then
    Width.equal (width_of_index ((op - cmp_base) mod 4)) Width.W64
  else if op >= cmov_base && op < msk_base then
    Width.equal (width_of_index ((op - cmov_base) mod 4)) Width.W64
  else if op >= msk_base && op < li_op then true (* MSK/EXT, SEXTB/W, ADDL *)
  else if op >= li_op && op < num_opcodes then true
  else Fmt.invalid_arg "Encoding.base_alpha: %d" op
