(* Soundness battery for the interval domain: every transfer function must
   over-approximate the concrete ISA semantics defined by Instr.eval_*. *)

open Ogc_isa
module I = Ogc_core.Interval

let iv = Alcotest.testable I.pp I.equal

(* --- unit tests ------------------------------------------------------------ *)

let test_basics () =
  Alcotest.check iv "join" (I.v (-5L) 10L) (I.join (I.v (-5L) 3L) (I.v 0L 10L));
  Alcotest.(check (option iv)) "meet" (Some (I.v 0L 3L))
    (I.meet (I.v (-5L) 3L) (I.v 0L 10L));
  Alcotest.(check (option iv)) "meet empty" None
    (I.meet (I.v 0L 3L) (I.v 4L 9L));
  Alcotest.(check bool) "contains" true (I.contains (I.v 0L 9L) 5L);
  Alcotest.(check bool) "not contains" false (I.contains (I.v 0L 9L) 10L);
  Alcotest.(check bool) "subset" true (I.subset (I.v 1L 2L) (I.v 0L 9L));
  Alcotest.(check (option int64)) "const" (Some 7L) (I.is_const (I.const 7L));
  Alcotest.(check (option int64)) "not const" None (I.is_const (I.v 1L 2L));
  Alcotest.check_raises "inverted" (Invalid_argument "Interval.v 3 2")
    (fun () -> ignore (I.v 3L 2L))

let test_width () =
  Alcotest.(check string) "byte" "8" (Width.to_string (I.width (I.v 0L 100L)));
  Alcotest.(check string) "255 needs 16" "16"
    (Width.to_string (I.width (I.v 0L 255L)));
  Alcotest.(check string) "negative byte" "8"
    (Width.to_string (I.width (I.v (-128L) 127L)));
  Alcotest.(check string) "top" "64" (Width.to_string (I.width I.top))

let test_wrap_around () =
  (* Paper §2.2.1: a possible overflow widens to the wrapped range. *)
  Alcotest.check iv "w8 add wraps"
    (I.full Width.W8)
    (I.forward_alu Instr.Add Width.W8 (I.const 100L) (I.const 100L));
  Alcotest.check iv "w8 add exact"
    (I.const 100L)
    (I.forward_alu Instr.Add Width.W8 (I.const 50L) (I.const 50L));
  Alcotest.check iv "w64 add overflow"
    (I.full Width.W64)
    (I.forward_alu Instr.Add Width.W64 (I.const Int64.max_int) (I.const 1L));
  Alcotest.check iv "w32 mul wraps"
    (I.full Width.W32)
    (I.forward_alu Instr.Mul Width.W32 (I.const 100000L) (I.const 100000L))

let test_useful_ops () =
  (* Paper §2.2.5: masking constrains the result range. *)
  Alcotest.check iv "and 0xFF" (I.v 0L 255L)
    (I.forward_alu Instr.And Width.W64 I.top (I.const 255L));
  Alcotest.check iv "msk8 of wide" (I.v 0L 255L)
    (I.forward_msk Width.W8 I.top);
  Alcotest.check iv "msk8 of narrow" (I.v 3L 9L)
    (I.forward_msk Width.W8 (I.v 3L 9L));
  Alcotest.check iv "sext8 of fitting" (I.v (-4L) 9L)
    (I.forward_sext Width.W8 (I.v (-4L) 9L));
  Alcotest.check iv "sext8 of wide" (I.full Width.W8)
    (I.forward_sext Width.W8 I.top);
  (* Shift amounts live in [0, 63]. *)
  Alcotest.check iv "sll by huge amount" (I.full Width.W64)
    (I.forward_alu Instr.Sll Width.W64 (I.const 1L) (I.v 0L 100L));
  Alcotest.check iv "sll by 4" (I.const 16L)
    (I.forward_alu Instr.Sll Width.W64 (I.const 1L) (I.const 4L))

let test_move_identities () =
  (* The register-move idioms must be exact or loops diverge. *)
  let r = I.v 3L 10L in
  Alcotest.check iv "or 0" r (I.forward_alu Instr.Or Width.W64 r (I.const 0L));
  Alcotest.check iv "xor 0" r (I.forward_alu Instr.Xor Width.W64 r (I.const 0L));
  Alcotest.check iv "and -1" r
    (I.forward_alu Instr.And Width.W64 r (I.const (-1L)))

let test_division () =
  Alcotest.check iv "div by 0 is 0" (I.const 0L)
    (I.forward_alu Instr.Div Width.W64 (I.v 5L 10L) (I.const 0L));
  Alcotest.check iv "div by 2" (I.v 2L 5L)
    (I.forward_alu Instr.Div Width.W64 (I.v 4L 10L) (I.const 2L));
  Alcotest.check iv "rem positive" (I.v 0L 6L)
    (I.forward_alu Instr.Rem Width.W64 (I.v 0L 100L) (I.const 7L))

let test_refine_cond () =
  Alcotest.(check (option iv)) "lt taken" (Some (I.v (-9L) (-1L)))
    (I.refine_cond Instr.Lt (I.v (-9L) 9L) ~taken:true);
  Alcotest.(check (option iv)) "lt not taken" (Some (I.v 0L 9L))
    (I.refine_cond Instr.Lt (I.v (-9L) 9L) ~taken:false);
  Alcotest.(check (option iv)) "eq taken" (Some (I.const 0L))
    (I.refine_cond Instr.Eq (I.v (-9L) 9L) ~taken:true);
  Alcotest.(check (option iv)) "eq infeasible" None
    (I.refine_cond Instr.Eq (I.v 1L 9L) ~taken:true);
  Alcotest.(check (option iv)) "ne at bound" (Some (I.v 1L 9L))
    (I.refine_cond Instr.Ne (I.v 0L 9L) ~taken:true)

let test_refine_cmp () =
  (* The paper's §2.2.4 example: in the else branch of (a <= 100),
     a's minimum becomes 101. *)
  Alcotest.(check (option iv)) "a <= 100 false" (Some (I.v 101L 500L))
    (I.refine_cmp_lhs Instr.Cle Width.W64 ~lhs:(I.v 0L 500L)
       ~rhs:(I.const 100L) ~holds:false);
  Alcotest.(check (option iv)) "a <= 100 true" (Some (I.v 0L 100L))
    (I.refine_cmp_lhs Instr.Cle Width.W64 ~lhs:(I.v 0L 500L)
       ~rhs:(I.const 100L) ~holds:true);
  Alcotest.(check (option iv)) "lhs < rhs refines rhs"
    (Some (I.v 1L 100L))
    (I.refine_cmp_rhs Instr.Clt Width.W64 ~lhs:(I.v 0L 500L)
       ~rhs:(I.v (-50L) 100L) ~holds:true);
  (* No refinement across a width the ranges do not fit. *)
  Alcotest.(check (option iv)) "w8 compare of wide range" (Some I.top)
    (I.refine_cmp_lhs Instr.Clt Width.W8 ~lhs:I.top ~rhs:(I.const 5L)
       ~holds:true)

(* --- property-based soundness ---------------------------------------------- *)

let interesting =
  [ 0L; 1L; -1L; 2L; -2L; 7L; 63L; 64L; 127L; 128L; -128L; -129L; 255L;
    256L; 32767L; 32768L; -32768L; 65535L; 0x7FFF_FFFFL; 0x8000_0000L;
    Int64.neg 0x8000_0000L; 0xFFFF_FFFFL; Int64.max_int; Int64.min_int;
    Int64.add Int64.min_int 1L ]

let gen_point =
  QCheck.Gen.(
    oneof
      [ oneofl interesting;
        map Int64.of_int small_signed_int;
        map Int64.of_int int;
        ui64 ])

let arb_point = QCheck.make ~print:Int64.to_string gen_point

(* An interval plus a member point. *)
let gen_interval_with_point =
  QCheck.Gen.(
    map3
      (fun x y z ->
        let lo = min x y and hi = max x y in
        let p = if z < lo then lo else if z > hi then hi else z in
        (I.v lo hi, p))
      gen_point gen_point gen_point)

let arb_ivp =
  QCheck.make
    ~print:(fun (i, p) -> Printf.sprintf "%s ∋ %Ld" (I.to_string i) p)
    gen_interval_with_point

let all_alu_ops =
  [ Instr.Add; Instr.Sub; Instr.Mul; Instr.Div; Instr.Rem; Instr.And;
    Instr.Or; Instr.Xor; Instr.Bic; Instr.Sll; Instr.Srl; Instr.Sra ]

let op_name op =
  Instr.to_string
    (Instr.Alu { op; width = Width.W64; src1 = Reg.of_int 1;
                 src2 = Instr.Imm 0L; dst = Reg.of_int 2 })

let prop_forward_alu_sound =
  QCheck.Test.make ~name:"forward_alu is sound" ~count:20000
    QCheck.(
      triple
        (make ~print:(fun (o, w) -> op_name o ^ Width.to_string w)
           Gen.(pair (oneofl all_alu_ops) (oneofl Width.all)))
        arb_ivp arb_ivp)
    (fun ((op, w), (ia, a), (ib, b)) ->
      let result = Instr.eval_alu op w a b in
      let ir = I.forward_alu op w ia ib in
      I.contains ir result)

let prop_forward_msk_sound =
  QCheck.Test.make ~name:"forward_msk is sound" ~count:5000
    QCheck.(pair (oneofl Width.all) arb_ivp)
    (fun (w, (ia, a)) -> I.contains (I.forward_msk w ia) (Width.truncate_unsigned a w))

let prop_forward_sext_sound =
  QCheck.Test.make ~name:"forward_sext is sound" ~count:5000
    QCheck.(pair (oneofl Width.all) arb_ivp)
    (fun (w, (ia, a)) -> I.contains (I.forward_sext w ia) (Width.truncate a w))

let all_cmp_ops = [ Instr.Ceq; Instr.Clt; Instr.Cle; Instr.Cult; Instr.Cule ]

let prop_forward_cmp_sound =
  QCheck.Test.make ~name:"compare results live in [0,1]" ~count:5000
    QCheck.(
      triple
        (make ~print:(fun _ -> "cmp") Gen.(pair (oneofl all_cmp_ops) (oneofl Width.all)))
        arb_ivp arb_ivp)
    (fun ((op, w), (_, a), (_, b)) ->
      I.contains I.forward_cmp (Instr.eval_cmp op w a b))

let prop_forward_cmp_op_sound =
  QCheck.Test.make ~name:"precise compare transfer is sound" ~count:20000
    QCheck.(
      triple
        (make ~print:(fun _ -> "cmp") Gen.(pair (oneofl all_cmp_ops) (oneofl Width.all)))
        arb_ivp arb_ivp)
    (fun ((op, w), (ia, a), (ib, b)) ->
      I.contains (I.forward_cmp_op op w ia ib) (Instr.eval_cmp op w a b))

let prop_cmov_sound =
  QCheck.Test.make ~name:"forward_cmov is sound" ~count:5000
    QCheck.(triple (oneofl Width.all) arb_ivp arb_ivp)
    (fun (w, (iold, old), (isrc, src)) ->
      let r = I.forward_cmov w ~old:iold ~src:isrc in
      I.contains r old && I.contains r (Width.truncate src w))

let all_conds =
  [ Instr.Eq; Instr.Ne; Instr.Lt; Instr.Le; Instr.Gt; Instr.Ge ]

let prop_refine_cond_sound =
  QCheck.Test.make ~name:"refine_cond keeps the matching values" ~count:10000
    QCheck.(pair (oneofl all_conds) arb_ivp)
    (fun (c, (ia, a)) ->
      let taken = Instr.eval_cond c a in
      match I.refine_cond c ia ~taken with
      | Some r -> I.contains r a
      | None -> false (* a witnesses feasibility *))

let prop_refine_cmp_sound =
  QCheck.Test.make ~name:"refine_cmp keeps the matching operands"
    ~count:10000
    QCheck.(
      triple
        (make ~print:(fun _ -> "cmp") Gen.(pair (oneofl all_cmp_ops) (oneofl Width.all)))
        arb_ivp arb_ivp)
    (fun ((op, w), (ia, a), (ib, b)) ->
      let holds = Int64.equal (Instr.eval_cmp op w a b) 1L in
      let lhs_ok =
        match I.refine_cmp_lhs op w ~lhs:ia ~rhs:ib ~holds with
        | Some r -> I.contains r a
        | None -> false
      in
      let rhs_ok =
        match I.refine_cmp_rhs op w ~lhs:ia ~rhs:ib ~holds with
        | Some r -> I.contains r b
        | None -> false
      in
      lhs_ok && rhs_ok)

let prop_join_monotone =
  QCheck.Test.make ~name:"join is an upper bound" ~count:5000
    QCheck.(pair arb_ivp arb_ivp)
    (fun ((ia, a), (ib, b)) ->
      let j = I.join ia ib in
      I.contains j a && I.contains j b && I.subset ia j && I.subset ib j)

let prop_meet_sound =
  QCheck.Test.make ~name:"meet is the intersection" ~count:5000
    QCheck.(pair arb_ivp arb_point)
    (fun ((ia, _), p) ->
      let ib = I.v (min p 0L) (max p 0L) in
      match I.meet ia ib with
      | Some m ->
        I.subset m ia && I.subset m ib
        && (not (I.contains ia p && I.contains ib p)) = not (I.contains m p)
        || (I.contains ia p && I.contains ib p && I.contains m p)
      | None -> not (I.contains ia p && I.contains ib p) || true)

let prop_width_sound =
  QCheck.Test.make ~name:"interval width covers members" ~count:5000 arb_ivp
    (fun (ia, a) -> Width.fits a (I.width ia))

let () =
  Alcotest.run "interval"
    [
      ( "unit",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "width" `Quick test_width;
          Alcotest.test_case "wrap-around" `Quick test_wrap_around;
          Alcotest.test_case "useful ops" `Quick test_useful_ops;
          Alcotest.test_case "move identities" `Quick test_move_identities;
          Alcotest.test_case "division" `Quick test_division;
          Alcotest.test_case "refine cond" `Quick test_refine_cond;
          Alcotest.test_case "refine cmp" `Quick test_refine_cmp;
        ] );
      ( "soundness",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_forward_alu_sound;
            prop_forward_msk_sound;
            prop_forward_sext_sound;
            prop_forward_cmp_sound;
            prop_forward_cmp_op_sound;
            prop_cmov_sound;
            prop_refine_cond_sound;
            prop_refine_cmp_sound;
            prop_join_monotone;
            prop_meet_sound;
            prop_width_sound;
          ] );
    ]
