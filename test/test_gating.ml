(* Tests for the hardware operand-gating support: significant-byte math
   and gating policies. *)

module Sigbytes = Ogc_gating.Sigbytes
module Policy = Ogc_gating.Policy
open Ogc_isa

let test_sigbytes () =
  Alcotest.(check int) "0" 1 (Sigbytes.significant_bytes 0L);
  Alcotest.(check int) "1" 1 (Sigbytes.significant_bytes 1L);
  Alcotest.(check int) "-1" 1 (Sigbytes.significant_bytes (-1L));
  Alcotest.(check int) "127" 1 (Sigbytes.significant_bytes 127L);
  Alcotest.(check int) "255 (zext)" 1 (Sigbytes.significant_bytes 255L);
  Alcotest.(check int) "256" 2 (Sigbytes.significant_bytes 256L);
  Alcotest.(check int) "-129" 2 (Sigbytes.significant_bytes (-129L));
  Alcotest.(check int) "65535" 2 (Sigbytes.significant_bytes 65535L);
  Alcotest.(check int) "2^32-1" 4 (Sigbytes.significant_bytes 0xFFFF_FFFFL);
  Alcotest.(check int) "2^33" 5 (Sigbytes.significant_bytes 0x2_0000_0000L);
  Alcotest.(check int) "min_int" 8 (Sigbytes.significant_bytes Int64.min_int)

let test_size_class () =
  Alcotest.(check int) "1" 1 (Sigbytes.size_class 1);
  Alcotest.(check int) "2" 2 (Sigbytes.size_class 2);
  Alcotest.(check int) "3" 5 (Sigbytes.size_class 3);
  Alcotest.(check int) "5" 5 (Sigbytes.size_class 5);
  Alcotest.(check int) "6" 8 (Sigbytes.size_class 6);
  Alcotest.(check int) "8" 8 (Sigbytes.size_class 8)

let test_policies () =
  let v = 300L in
  (* 2 significant bytes *)
  Alcotest.(check int) "none" 8
    (Policy.active_bytes Policy.No_gating ~width:Width.W8 ~value:v);
  Alcotest.(check int) "software uses opcode width" 4
    (Policy.active_bytes Policy.Software ~width:Width.W32 ~value:v);
  Alcotest.(check int) "significance uses the value" 2
    (Policy.active_bytes Policy.Hw_significance ~width:Width.W64 ~value:v);
  Alcotest.(check int) "size rounds to {1,2,5,8}" 2
    (Policy.active_bytes Policy.Hw_size ~width:Width.W64 ~value:v);
  Alcotest.(check int) "size rounds 3 -> 5" 5
    (Policy.active_bytes Policy.Hw_size ~width:Width.W64 ~value:0x10_0000L);
  Alcotest.(check int) "cooperative takes the min" 2
    (Policy.active_bytes Policy.Sw_plus_significance ~width:Width.W32 ~value:v);
  Alcotest.(check int) "cooperative capped by opcode" 1
    (Policy.active_bytes Policy.Sw_plus_size ~width:Width.W8 ~value:v)

let test_tags () =
  Alcotest.(check int) "none" 0 (Policy.tag_bits Policy.No_gating);
  Alcotest.(check int) "software" 0 (Policy.tag_bits Policy.Software);
  Alcotest.(check int) "significance" 7 (Policy.tag_bits Policy.Hw_significance);
  Alcotest.(check int) "size" 2 (Policy.tag_bits Policy.Hw_size);
  Alcotest.(check int) "cooperative" 2 (Policy.tag_bits Policy.Sw_plus_size);
  Alcotest.(check bool) "sw binary needed" true
    (Policy.uses_software_widths Policy.Sw_plus_size);
  Alcotest.(check bool) "hw-only runs the baseline" false
    (Policy.uses_software_widths Policy.Hw_size)

let prop_sigbytes_roundtrip =
  QCheck.Test.make ~name:"significant bytes reconstruct the value" ~count:5000
    QCheck.int64 (fun v ->
      let k = Sigbytes.significant_bytes v in
      let shift = 64 - (8 * k) in
      if k = 8 then true
      else
        let sext = Int64.shift_right (Int64.shift_left v shift) shift in
        let zext = Int64.shift_right_logical (Int64.shift_left v shift) shift in
        Int64.equal sext v || Int64.equal zext v)

let prop_sigbytes_minimal =
  QCheck.Test.make ~name:"significant bytes are minimal" ~count:5000
    QCheck.int64 (fun v ->
      let k = Sigbytes.significant_bytes v in
      k = 1
      ||
      let k' = k - 1 in
      let shift = 64 - (8 * k') in
      let sext = Int64.shift_right (Int64.shift_left v shift) shift in
      let zext = Int64.shift_right_logical (Int64.shift_left v shift) shift in
      (not (Int64.equal sext v)) && not (Int64.equal zext v))

(* [Sigbytes.significant_bytes] is a chain of range comparisons; the
   reference is the byte loop it replaced: the smallest k whose low k
   bytes, sign- or zero-extended, give the value back. *)
let byte_loop_significant_bytes v =
  let rec go k =
    if k >= 8 then 8
    else
      let shift = 64 - (k * 8) in
      let sext = Int64.shift_right (Int64.shift_left v shift) shift in
      let zext = Int64.shift_right_logical (Int64.shift_left v shift) shift in
      if Int64.equal sext v || Int64.equal zext v then k else go (k + 1)
  in
  go 1

(* 2^k - 1, 2^k, 2^k + 1 and their negations for k = 0..63. *)
let power_of_two_edges =
  List.concat_map
    (fun k ->
      let p = Int64.shift_left 1L k in
      List.concat_map
        (fun v -> [ v; Int64.neg v ])
        [ Int64.pred p; p; Int64.succ p ])
    (List.init 64 Fun.id)

(* Random values of every magnitude: a random word shifted down to k+1
   significant bits, for k drawn uniformly from 0..63. *)
let any_magnitude =
  QCheck.Gen.(
    map2 (fun k v -> Int64.shift_right v (63 - k)) (int_range 0 63) ui64)

let prop_sigbytes_matches_byte_loop =
  QCheck.Test.make ~name:"significant bytes equal the byte loop" ~count:20000
    (QCheck.make ~print:Int64.to_string
       QCheck.Gen.(frequency [ (3, any_magnitude); (1, oneofl power_of_two_edges) ]))
    (fun v -> Sigbytes.significant_bytes v = byte_loop_significant_bytes v)

let test_sigbytes_power_of_two_edges () =
  List.iter
    (fun v ->
      Alcotest.(check int) (Int64.to_string v) (byte_loop_significant_bytes v)
        (Sigbytes.significant_bytes v))
    power_of_two_edges

(* The software policy's byte-width tags must agree with the energy
   accounting in Savings_table: re-encoding to a width with fewer active
   bytes never costs energy, the table is antisymmetric with a zero
   diagonal, and the paper's Table 1 layout exposes exactly the same
   numbers. *)
module Savings_table = Ogc_core.Savings_table

let width_pair = QCheck.(pair (oneofl Width.all) (oneofl Width.all))

let prop_savings_diag_and_antisym =
  QCheck.Test.make
    ~name:"savings: zero diagonal, widen = -narrow" ~count:100 width_pair
    (fun (a, b) ->
      let t = Savings_table.default in
      let s_ab = Savings_table.saving t ~from_:a ~to_:b in
      let s_ba = Savings_table.saving t ~from_:b ~to_:a in
      if Width.equal a b then Float.equal s_ab 0.0
      else Float.equal s_ab (-.s_ba))

let prop_savings_match_tags =
  QCheck.Test.make
    ~name:"fewer software-tagged bytes never costs energy" ~count:100
    QCheck.(pair width_pair int64)
    (fun ((from_, to_), v) ->
      let t = Savings_table.default in
      let active w = Policy.active_bytes Policy.Software ~width:w ~value:v in
      let s = Savings_table.saving t ~from_ ~to_ in
      if active to_ < active from_ then s >= 0.0
      else if active to_ > active from_ then s <= 0.0
      else Float.equal s 0.0)

let prop_matrix_is_saving =
  QCheck.Test.make ~name:"Table 1 matrix equals saving" ~count:20
    QCheck.unit (fun () ->
      let t = Savings_table.default in
      List.for_all
        (fun (to_, row) ->
          List.for_all
            (fun (from_, cell) ->
              Float.equal cell (Savings_table.saving t ~from_ ~to_))
            row)
        (Savings_table.matrix t))

let prop_software_tags_cover_value =
  QCheck.Test.make
    ~name:"software width tags cover the significant bytes" ~count:2000
    QCheck.(pair int64 (oneofl Width.all))
    (fun (v, w) ->
      (* When the value is recoverable from width [w] (the invariant VRP
         maintains for every software width tag), gating to the tag must
         keep every significant byte active. *)
      QCheck.assume (Int64.equal (Width.truncate v w) v);
      Sigbytes.significant_bytes v
      <= Policy.active_bytes Policy.Software ~width:w ~value:v)

let prop_policy_bounds =
  QCheck.Test.make ~name:"active bytes in [1,8] and monotone vs none"
    ~count:2000
    QCheck.(pair int64 (oneofl Width.all))
    (fun (v, w) ->
      List.for_all
        (fun p ->
          let b = Policy.active_bytes p ~width:w ~value:v in
          b >= 1 && b <= 8)
        Policy.all)

let () =
  Alcotest.run "gating"
    [
      ( "unit",
        [
          Alcotest.test_case "significant bytes" `Quick test_sigbytes;
          Alcotest.test_case "significant bytes at powers of two" `Quick
            test_sigbytes_power_of_two_edges;
          Alcotest.test_case "size classes" `Quick test_size_class;
          Alcotest.test_case "policies" `Quick test_policies;
          Alcotest.test_case "tags" `Quick test_tags;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_sigbytes_roundtrip; prop_sigbytes_minimal;
            prop_sigbytes_matches_byte_loop; prop_policy_bounds ]
      );
      ( "savings",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_savings_diag_and_antisym;
            prop_savings_match_tags;
            prop_matrix_is_saving;
            prop_software_tags_cover_value;
          ] );
    ]
