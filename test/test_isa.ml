(* Unit tests for the instruction set: evaluation semantics, register
   conventions, classes and printing. *)

open Ogc_isa

let r n = Reg.of_int n

let test_reg_conventions () =
  Alcotest.(check int) "zero" 31 (Reg.to_int Reg.zero);
  Alcotest.(check int) "sp" 30 (Reg.to_int Reg.sp);
  Alcotest.(check int) "ret" 0 (Reg.to_int Reg.ret);
  Alcotest.(check int) "arg0" 16 (Reg.to_int (Reg.arg 0));
  Alcotest.(check int) "arg5" 21 (Reg.to_int (Reg.arg 5));
  Alcotest.(check int) "callee saved" 6 (List.length Reg.callee_saved);
  Alcotest.(check int) "all" 32 (List.length Reg.all);
  Alcotest.(check bool) "caller+callee+sp+zero = 32" true
    (List.length Reg.caller_saved + List.length Reg.callee_saved + 2 = 32);
  Alcotest.check_raises "arg 6" (Invalid_argument "Reg.arg 6") (fun () ->
      ignore (Reg.arg 6));
  Alcotest.check_raises "of_int 32" (Invalid_argument "Reg.of_int 32")
    (fun () -> ignore (Reg.of_int 32))

let test_eval_add_widths () =
  Alcotest.(check int64) "add64" 300L (Instr.eval_alu Instr.Add Width.W64 100L 200L);
  (* 100+200 = 300 = 0x12C; low byte 0x2C = 44, sign-extended *)
  Alcotest.(check int64) "add8 wrap" 44L
    (Instr.eval_alu Instr.Add Width.W8 100L 200L);
  (* 200 = 0xC8 -> sext8 = -56 *)
  Alcotest.(check int64) "add8 negative" (-56L)
    (Instr.eval_alu Instr.Add Width.W8 100L 100L);
  Alcotest.(check int64) "add32 wrap" Int64.(neg 0x8000_0000L)
    (Instr.eval_alu Instr.Add Width.W32 0x7FFF_FFFFL 1L)

let test_eval_div_total () =
  Alcotest.(check int64) "x/0 = 0" 0L (Instr.eval_alu Instr.Div Width.W64 5L 0L);
  Alcotest.(check int64) "x rem 0 = 0" 0L (Instr.eval_alu Instr.Rem Width.W64 5L 0L);
  Alcotest.(check int64) "min/-1 wraps" Int64.min_int
    (Instr.eval_alu Instr.Div Width.W64 Int64.min_int (-1L));
  Alcotest.(check int64) "min rem -1 = 0" 0L
    (Instr.eval_alu Instr.Rem Width.W64 Int64.min_int (-1L));
  Alcotest.(check int64) "-7/2" (-3L) (Instr.eval_alu Instr.Div Width.W64 (-7L) 2L);
  Alcotest.(check int64) "-7 rem 2" (-1L) (Instr.eval_alu Instr.Rem Width.W64 (-7L) 2L)

let test_eval_shifts () =
  Alcotest.(check int64) "sll masks amount" 2L
    (Instr.eval_alu Instr.Sll Width.W64 1L 65L);
  Alcotest.(check int64) "srl64 of -1 by 1" Int64.max_int
    (Instr.eval_alu Instr.Srl Width.W64 (-1L) 1L);
  (* srl at W8: only the low byte participates, zero-filled. *)
  Alcotest.(check int64) "srl8 of -1 by 4" 15L
    (Instr.eval_alu Instr.Srl Width.W8 (-1L) 4L);
  Alcotest.(check int64) "srl by 0 is identity" (-5L)
    (Instr.eval_alu Instr.Srl Width.W64 (-5L) 0L);
  Alcotest.(check int64) "sra of -8 by 2" (-2L)
    (Instr.eval_alu Instr.Sra Width.W64 (-8L) 2L)

let test_eval_logic () =
  Alcotest.(check int64) "bic" 0xF0L (Instr.eval_alu Instr.Bic Width.W64 0xFFL 0x0FL);
  Alcotest.(check int64) "and" 0x0FL (Instr.eval_alu Instr.And Width.W64 0xFFL 0x0FL);
  Alcotest.(check int64) "xor" 0xF0L (Instr.eval_alu Instr.Xor Width.W64 0xFFL 0x0FL)

let test_eval_cmp () =
  Alcotest.(check int64) "lt signed" 1L
    (Instr.eval_cmp Instr.Clt Width.W64 (-1L) 0L);
  Alcotest.(check int64) "ult unsigned" 0L
    (Instr.eval_cmp Instr.Cult Width.W64 (-1L) 0L);
  Alcotest.(check int64) "eq at width" 1L
    (Instr.eval_cmp Instr.Ceq Width.W8 256L 0L);
  Alcotest.(check int64) "le" 1L (Instr.eval_cmp Instr.Cle Width.W64 3L 3L);
  Alcotest.(check int64) "cule" 1L (Instr.eval_cmp Instr.Cule Width.W64 3L 3L)

let test_eval_cond () =
  Alcotest.(check bool) "eq" true (Instr.eval_cond Instr.Eq 0L);
  Alcotest.(check bool) "ne" false (Instr.eval_cond Instr.Ne 0L);
  Alcotest.(check bool) "lt" true (Instr.eval_cond Instr.Lt (-1L));
  Alcotest.(check bool) "ge" true (Instr.eval_cond Instr.Ge 0L);
  Alcotest.(check bool) "gt" false (Instr.eval_cond Instr.Gt 0L);
  Alcotest.(check bool) "le" true (Instr.eval_cond Instr.Le (-5L))

let test_defs_uses () =
  let add = Instr.Alu { op = Instr.Add; width = Width.W64; src1 = r 1;
                        src2 = Instr.Reg (r 2); dst = r 3 } in
  Alcotest.(check (list int)) "add defs" [ 3 ]
    (List.map Reg.to_int (Instr.defs add));
  Alcotest.(check (list int)) "add uses" [ 1; 2 ]
    (List.map Reg.to_int (Instr.uses add));
  let cmov = Instr.Cmov { cond = Instr.Ne; width = Width.W64; test = r 1;
                          src = Instr.Reg (r 2); dst = r 3 } in
  Alcotest.(check (list int)) "cmov reads its old dst" [ 1; 3; 2 ]
    (List.map Reg.to_int (Instr.uses cmov));
  let store = Instr.Store { width = Width.W8; base = r 4; offset = 0L; src = r 5 } in
  Alcotest.(check (list int)) "store defs" [] (List.map Reg.to_int (Instr.defs store));
  let call = Instr.Call { callee = "f" } in
  Alcotest.(check bool) "call clobbers caller-saved" true
    (List.length (Instr.defs call) = List.length Reg.caller_saved)

let test_with_width () =
  let add = Instr.Alu { op = Instr.Add; width = Width.W64; src1 = r 1;
                        src2 = Instr.Imm 5L; dst = r 3 } in
  Alcotest.(check string) "narrowed" "add8 r1, #5, r3"
    (Instr.to_string (Instr.with_width add Width.W8));
  let call = Instr.Call { callee = "f" } in
  Alcotest.(check string) "call unchanged" "call f"
    (Instr.to_string (Instr.with_width call Width.W8))

let test_classes () =
  let mk op = Instr.Alu { op; width = Width.W64; src1 = r 1;
                          src2 = Instr.Imm 0L; dst = r 2 } in
  Alcotest.(check string) "add" "ADD" (Instr.iclass_name (Instr.iclass (mk Instr.Add)));
  Alcotest.(check string) "div in MUL row" "MUL"
    (Instr.iclass_name (Instr.iclass (mk Instr.Div)));
  Alcotest.(check string) "bic in AND row" "AND"
    (Instr.iclass_name (Instr.iclass (mk Instr.Bic)));
  Alcotest.(check string) "sra" "SHIFT"
    (Instr.iclass_name (Instr.iclass (mk Instr.Sra)));
  Alcotest.(check int) "ten ALU classes" 10 (List.length Instr.all_alu_classes)

let test_printing () =
  Alcotest.(check string) "load" "ld8u 4(r5), r6"
    (Instr.to_string
       (Instr.Load { width = Width.W8; signed = false; base = r 5; offset = 4L;
                     dst = r 6 }));
  Alcotest.(check string) "store" "st32 r7, -8(sp)"
    (Instr.to_string
       (Instr.Store { width = Width.W32; base = Reg.sp; offset = -8L; src = r 7 }));
  Alcotest.(check string) "li" "li #-1, r1"
    (Instr.to_string (Instr.Li { dst = r 1; imm = -1L }))

(* Property: eval at width w only depends on the low w bits of inputs, for
   the low-bit-determined operations (the foundation of useful-width
   re-encoding). *)
let low_bit_ops = [ Instr.Add; Instr.Sub; Instr.Mul; Instr.And; Instr.Or;
                    Instr.Xor; Instr.Bic ]

let prop_low_bits =
  QCheck.Test.make ~name:"narrow ops ignore high input bits" ~count:5000
    QCheck.(
      quad (oneofl low_bit_ops)
        (oneofl [ Width.W8; Width.W16; Width.W32 ])
        int64 int64)
    (fun (op, w, a, b) ->
      let garbage = 0x5A5A_5A5A_0000_0000L in
      Int64.equal
        (Instr.eval_alu op w a b)
        (Instr.eval_alu op w (Int64.logxor a garbage) b))

let prop_result_fits =
  QCheck.Test.make ~name:"results are canonical for their width" ~count:5000
    QCheck.(
      quad
        (oneofl [ Instr.Add; Instr.Sub; Instr.Mul; Instr.And; Instr.Or;
                  Instr.Xor; Instr.Bic; Instr.Sll; Instr.Srl; Instr.Sra;
                  Instr.Div; Instr.Rem ])
        (oneofl Width.all) int64 int64)
    (fun (op, w, a, b) -> Width.fits (Instr.eval_alu op w a b) w)

(* --- binary encoding ---------------------------------------------------------- *)

module Encoding = Ogc_isa.Encoding

let test_opcode_space () =
  Alcotest.(check int) "opcode space size" 116 (List.length Encoding.all_opcodes);
  (* Mnemonics are unique. *)
  let names = List.map snd Encoding.all_opcodes in
  Alcotest.(check int) "mnemonics unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  (* Spot-check mnemonics and numbering. *)
  let op_of i = Encoding.opcode_of i in
  let add8 = op_of (Instr.Alu { op = Instr.Add; width = Width.W8; src1 = r 1;
                                src2 = Instr.Imm 0L; dst = r 2 }) in
  Alcotest.(check string) "add8" "add8" (Encoding.mnemonic add8);
  Alcotest.(check int) "add8 is opcode 0" 0 (Encoding.opcode_to_int add8);
  let ld8u = op_of (Instr.Load { width = Width.W8; signed = false; base = r 1;
                                 offset = 0L; dst = r 2 }) in
  Alcotest.(check string) "ld8u" "ld8u" (Encoding.mnemonic ld8u)

let test_base_alpha () =
  let opc op width =
    Encoding.opcode_of
      (Instr.Alu { op; width; src1 = r 1; src2 = Instr.Imm 0L; dst = r 2 })
  in
  (* The paper's §4.3 split: Alpha has addq/addl but no byte/halfword
     arithmetic, no narrow logicals/shifts/compares/cmovs; all memory
     widths exist. *)
  Alcotest.(check bool) "add64 base" true (Encoding.base_alpha (opc Instr.Add Width.W64));
  Alcotest.(check bool) "add32 base" true (Encoding.base_alpha (opc Instr.Add Width.W32));
  Alcotest.(check bool) "add8 extension" false (Encoding.base_alpha (opc Instr.Add Width.W8));
  Alcotest.(check bool) "and32 extension" false (Encoding.base_alpha (opc Instr.And Width.W32));
  Alcotest.(check bool) "and64 base" true (Encoding.base_alpha (opc Instr.And Width.W64));
  Alcotest.(check bool) "div64 not on Alpha" false
    (Encoding.base_alpha (opc Instr.Div Width.W64));
  let cmp8 =
    Encoding.opcode_of
      (Instr.Cmp { op = Instr.Ceq; width = Width.W8; src1 = r 1;
                   src2 = Instr.Imm 0L; dst = r 2 })
  in
  Alcotest.(check bool) "cmpeq8 extension" false (Encoding.base_alpha cmp8);
  let ld16 =
    Encoding.opcode_of
      (Instr.Load { width = Width.W16; signed = false; base = r 1;
                    offset = 0L; dst = r 2 })
  in
  Alcotest.(check bool) "ldwu base" true (Encoding.base_alpha ld16)

let arb_instr =
  let open QCheck.Gen in
  let reg = map Reg.of_int (int_range 0 31) in
  let dst = map Reg.of_int (int_range 0 30) in
  let operand =
    oneof [ map (fun r -> Instr.Reg r) reg; map (fun v -> Instr.Imm v) ui64 ]
  in
  let width = oneofl Width.all in
  let gen =
    oneof
      [
        (let* op = oneofl
             [ Instr.Add; Instr.Sub; Instr.Mul; Instr.Div; Instr.Rem;
               Instr.And; Instr.Or; Instr.Xor; Instr.Bic; Instr.Sll;
               Instr.Srl; Instr.Sra ] in
         let* width = width and* src1 = reg and* src2 = operand and* dst = dst in
         return (Instr.Alu { op; width; src1; src2; dst }));
        (let* op = oneofl
             [ Instr.Ceq; Instr.Clt; Instr.Cle; Instr.Cult; Instr.Cule ] in
         let* width = width and* src1 = reg and* src2 = operand and* dst = dst in
         return (Instr.Cmp { op; width; src1; src2; dst }));
        (let* cond = oneofl
             [ Instr.Eq; Instr.Ne; Instr.Lt; Instr.Le; Instr.Gt; Instr.Ge ] in
         let* width = width and* test = reg and* src = operand and* dst = dst in
         return (Instr.Cmov { cond; width; test; src; dst }));
        (let* width = width and* src = reg and* dst = dst in
         return (Instr.Msk { width; src; dst }));
        (let* width = width and* src = reg and* dst = dst in
         return (Instr.Sext { width; src; dst }));
        (let* imm = ui64 and* dst = dst in return (Instr.Li { dst; imm }));
        (let* width = width and* signed = bool and* base = reg and* dst = dst
         and* offset = map Int64.of_int (int_range (-4096) 4096) in
         return (Instr.Load { width; signed; base; offset; dst }));
        (let* width = width and* base = reg and* src = reg
         and* offset = map Int64.of_int (int_range (-4096) 4096) in
         return (Instr.Store { width; base; offset; src }));
        (let* src = reg in return (Instr.Emit { src }));
      ]
  in
  QCheck.make ~print:Instr.to_string gen

let prop_opcode_width_consistent =
  QCheck.Test.make ~name:"opcode embeds the instruction width" ~count:5000
    arb_instr (fun i ->
      let op = Encoding.opcode_of i in
      let m = Encoding.mnemonic op in
      (* A width-bearing mnemonic must end with the width's digits. *)
      match i with
      | Instr.Alu _ | Instr.Cmp _ | Instr.Cmov _ | Instr.Msk _ | Instr.Sext _
        ->
        let wstr = Width.to_string (Instr.width i) in
        let n = String.length m and k = String.length wstr in
        n >= k && String.sub m (n - k) k = wstr
      | _ -> true)

let () =
  Alcotest.run "isa"
    [
      ( "unit",
        [
          Alcotest.test_case "registers" `Quick test_reg_conventions;
          Alcotest.test_case "add widths" `Quick test_eval_add_widths;
          Alcotest.test_case "division is total" `Quick test_eval_div_total;
          Alcotest.test_case "shifts" `Quick test_eval_shifts;
          Alcotest.test_case "logic" `Quick test_eval_logic;
          Alcotest.test_case "compares" `Quick test_eval_cmp;
          Alcotest.test_case "conditions" `Quick test_eval_cond;
          Alcotest.test_case "defs/uses" `Quick test_defs_uses;
          Alcotest.test_case "with_width" `Quick test_with_width;
          Alcotest.test_case "classes" `Quick test_classes;
          Alcotest.test_case "printing" `Quick test_printing;
        ] );
      ( "encoding",
        [
          Alcotest.test_case "opcode space" `Quick test_opcode_space;
          Alcotest.test_case "base alpha split" `Quick test_base_alpha;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_low_bits; prop_result_fits; prop_opcode_width_consistent ] );
    ]
