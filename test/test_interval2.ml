(* Second interval battery: the auxiliary range constructors, division
   corner cases, shift amounts, and the widening landmarks VRP relies on
   (the landmarks themselves live in Vrp, but their contract — compares at
   narrow widths stay refinable after widening — is checked here at the
   domain level). *)

open Ogc_isa
module I = Ogc_core.Interval

let iv = Alcotest.testable I.pp I.equal

let test_constructors () =
  Alcotest.check iv "bool" (I.v 0L 1L) I.bool;
  Alcotest.check iv "full W8" (I.v (-128L) 127L) (I.full Width.W8);
  Alcotest.(check int64) "unsigned_max W16" 65535L (I.unsigned_max Width.W16);
  Alcotest.(check int64) "unsigned_max W64 saturates" Int64.max_int
    (I.unsigned_max Width.W64)

let test_loads () =
  Alcotest.check iv "signed byte load" (I.full Width.W8)
    (I.forward_load Width.W8 ~signed:true);
  Alcotest.check iv "unsigned byte load" (I.v 0L 255L)
    (I.forward_load Width.W8 ~signed:false);
  Alcotest.check iv "quad load" (I.full Width.W64)
    (I.forward_load Width.W64 ~signed:false)

let test_division_corners () =
  (* Negative constant divisor is monotone decreasing. *)
  Alcotest.check iv "div by -2" (I.v (-5L) (-2L))
    (I.forward_alu Instr.Div Width.W64 (I.v 4L 10L) (I.const (-2L)));
  (* min_int dividend with a negative divisor must stay conservative. *)
  Alcotest.(check bool) "min_int/-1 covered" true
    (I.contains
       (I.forward_alu Instr.Div Width.W64 (I.v Int64.min_int 0L) (I.const (-1L)))
       Int64.min_int);
  (* Divisor range spanning zero includes the x/0 = 0 result. *)
  Alcotest.(check bool) "x/0=0 included" true
    (I.contains
       (I.forward_alu Instr.Div Width.W64 (I.v 5L 10L) (I.v (-2L) 2L))
       0L);
  (* Magnitude bound: |x/y| <= |x|. *)
  let r = I.forward_alu Instr.Div Width.W64 (I.v (-100L) 50L) (I.v 3L 9L) in
  Alcotest.(check bool) "magnitude bound" true
    (Int64.compare r.I.lo (-100L) >= 0 && Int64.compare r.I.hi 100L <= 0);
  (* Four-corner bounds are exact on strictly positive operand ranges. *)
  Alcotest.check iv "positive / positive" (I.v 25L 100L)
    (I.forward_alu Instr.Div Width.W64 (I.v 100L 200L) (I.v 2L 4L));
  Alcotest.check iv "positive / negative" (I.v (-100L) (-25L))
    (I.forward_alu Instr.Div Width.W64 (I.v 100L 200L) (I.v (-4L) (-2L)))

let test_rem_corners () =
  Alcotest.check iv "rem by [1,1]" (I.const 0L)
    (I.forward_alu Instr.Rem Width.W64 (I.v 0L 100L) (I.const 1L));
  Alcotest.check iv "rem negative dividend" (I.v (-6L) 0L)
    (I.forward_alu Instr.Rem Width.W64 (I.v (-100L) 0L) (I.const 7L));
  Alcotest.check iv "rem mixed dividend" (I.v (-6L) 6L)
    (I.forward_alu Instr.Rem Width.W64 (I.v (-100L) 100L) (I.const 7L));
  (* Same-quotient window: every dividend in [8,12] shares quotient 1 by
     7, so the remainder tracks the dividend exactly. *)
  Alcotest.check iv "same-quotient rem" (I.v 1L 5L)
    (I.forward_alu Instr.Rem Width.W64 (I.v 8L 12L) (I.const 7L))

let test_shift_amounts () =
  (* Amounts partially out of [0,63] defeat prediction. *)
  Alcotest.check iv "negative amount" (I.full Width.W64)
    (I.forward_alu Instr.Sll Width.W64 (I.const 1L) (I.v (-1L) 1L));
  (* srl by a possibly-zero amount keeps the (negative) identity values. *)
  Alcotest.(check bool) "srl amount 0 keeps sign" true
    (I.contains
       (I.forward_alu Instr.Srl Width.W64 (I.const (-8L)) (I.v 0L 1L))
       (-8L));
  (* sra keeps ordering on negative inputs. *)
  Alcotest.check iv "sra of negatives" (I.v (-4L) (-1L))
    (I.forward_alu Instr.Sra Width.W64 (I.v (-8L) (-4L)) (I.v 1L 2L))

let test_cmp_op_precision () =
  let c = I.forward_cmp_op in
  Alcotest.check iv "disjoint lt" (I.const 1L)
    (c Instr.Clt Width.W64 (I.v 0L 5L) (I.v 9L 9L));
  Alcotest.check iv "disjoint ge" (I.const 0L)
    (c Instr.Clt Width.W64 (I.v 9L 20L) (I.v 0L 9L));
  Alcotest.check iv "overlap undecided" I.bool
    (c Instr.Clt Width.W64 (I.v 0L 10L) (I.v 5L 15L));
  Alcotest.check iv "const eq" (I.const 1L)
    (c Instr.Ceq Width.W64 (I.const 7L) (I.const 7L));
  Alcotest.check iv "disjoint eq" (I.const 0L)
    (c Instr.Ceq Width.W64 (I.v 0L 5L) (I.v 6L 9L));
  (* Unsigned compares refuse to decide when a side may be negative. *)
  Alcotest.check iv "unsigned with negative" I.bool
    (c Instr.Cult Width.W64 (I.v (-5L) (-1L)) (I.const 3L));
  (* Ranges wider than the compare width cannot decide either. *)
  Alcotest.check iv "wide range at W8" I.bool
    (c Instr.Clt Width.W8 (I.v 0L 300L) (I.const 500L))

(* The width-landmark contract: after widening to a landmark, the range
   still fits the corresponding operation width, so compare refinement
   continues to apply (this was a real divergence bug). *)
let test_landmark_refinability () =
  let widened = I.v 0L 0x7FFF_FFFFL in
  (* still within W32 *)
  match
    I.refine_cmp_lhs Instr.Clt Width.W32 ~lhs:widened ~rhs:(I.const 100L)
      ~holds:true
  with
  | Some r -> Alcotest.check iv "refined below the bound" (I.v 0L 99L) r
  | None -> Alcotest.fail "refinement lost"

let () =
  Alcotest.run "interval2"
    [
      ( "corners",
        [
          Alcotest.test_case "constructors" `Quick test_constructors;
          Alcotest.test_case "loads" `Quick test_loads;
          Alcotest.test_case "division" `Quick test_division_corners;
          Alcotest.test_case "remainder" `Quick test_rem_corners;
          Alcotest.test_case "shift amounts" `Quick test_shift_amounts;
          Alcotest.test_case "precise compares" `Quick test_cmp_op_precision;
          Alcotest.test_case "landmark refinability" `Quick
            test_landmark_refinability;
        ] );
    ]
