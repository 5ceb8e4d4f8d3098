(* Register allocator tests: interpreter equivalence of the pre- and
   post-allocation programs, the no-interference-violated property on
   colored graphs, the spill-iteration termination bound, and a directed
   high-pressure program that must compile cleanly and round-trip
   through the optimization chains.

   The pre-allocation (virtual-register) program is interpretable
   directly: the interpreter sizes its register file from the largest
   register mentioned, and generated programs are non-recursive, so
   distinct temporaries never alias across calls. *)

module Minic = Ogc_minic.Minic
module Interp = Ogc_ir.Interp
module Regalloc = Ogc_regalloc.Regalloc
module Gen_minic = Ogc_fuzz.Gen_minic
module Oracle = Ogc_fuzz.Oracle
open Ogc_isa

(* Generated pressure programs terminate by construction, but their
   dynamic length has a long tail: of 12,000 sampled, 3 ran past 3M
   steps and the longest took 7.2M.  A reference run that exhausts the
   budget checks nothing about allocation, so the budget is the
   interpreter's default 100M, far above that tail. *)
let cfg = Interp.default_config
let w64_of _ = Width.W64

(* --- directed high-pressure program ---------------------------------------- *)

(* 32 accumulators all live around a loop that routes one of them
   through a call every iteration: more simultaneously live scalars
   than the 28 allocatable registers, so allocation must spill. *)
let nlocals = 32

let pressure_src =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "int mix(int a, int c) { return ((a * 31) + c) ^ (c >> 3); }\n";
  Buffer.add_string b "int main() {\n";
  for i = 0 to nlocals - 1 do
    Buffer.add_string b (Printf.sprintf "  int v%02d = %d;\n" i (i + 1))
  done;
  Buffer.add_string b "  for (int i = 0; i < 64; i++) {\n";
  Buffer.add_string b
    (Printf.sprintf "    v00 += mix(v%02d, i);\n" (nlocals - 1));
  for i = 1 to nlocals - 1 do
    Buffer.add_string b
      (Printf.sprintf "    v%02d += v%02d %s v%02d;\n" i (i - 1)
         (if i mod 2 = 0 then "+" else "^")
         (if i >= 2 then i - 2 else nlocals - 1))
  done;
  Buffer.add_string b "  }\n";
  for i = 0 to nlocals - 1 do
    Buffer.add_string b (Printf.sprintf "  emit(v%02d);\n" i)
  done;
  Buffer.add_string b "  return 0;\n}\n";
  Buffer.contents b

let test_pressure_compiles () =
  let p, info = Minic.compile_with_info pressure_src in
  let main =
    List.find (fun fa -> fa.Regalloc.fa_name = "main") info.Regalloc.fallocs
  in
  Alcotest.(check bool)
    "main spills" true
    (main.Regalloc.fa_slots <> []);
  Alcotest.(check bool)
    "iterations within default bound" true
    (List.for_all
       (fun fa -> fa.Regalloc.fa_iterations <= 12)
       info.Regalloc.fallocs);
  (* Every accumulator is a proven-32-bit int, so the width-aware slots
     beat naive 8-byte slots. *)
  Alcotest.(check bool)
    "some slot narrower than 8 bytes" true
    (List.exists (fun s -> s.Regalloc.sbytes < 8) main.Regalloc.fa_slots);
  Alcotest.(check bool)
    "width-aware area strictly below naive" true
    (Regalloc.spill_slots_bytes info < Regalloc.spill_slots_naive_bytes info);
  (* And the allocated program still runs. *)
  ignore (Interp.run ~config:cfg p)

let test_pressure_equivalence () =
  let pre = Minic.lower pressure_src in
  let post = Minic.compile pressure_src in
  let a = Interp.run ~config:cfg pre and b = Interp.run ~config:cfg post in
  Alcotest.(check (list int64)) "emitted" a.Interp.emitted b.Interp.emitted;
  Alcotest.(check int64) "checksum" a.Interp.checksum b.Interp.checksum

let test_pressure_round_trip () =
  (* The allocated program must survive every default optimization
     chain (cleanup / VRP / VRS pipelines) with the oracle seeing no
     divergence from the reference run. *)
  let p = Minic.compile pressure_src in
  match
    Oracle.check ~config:Oracle.interp_config
      ~transforms:Oracle.default_transforms p
  with
  | Oracle.Skipped reason -> Alcotest.fail ("oracle skipped: " ^ reason)
  | Oracle.Checked [] -> ()
  | Oracle.Checked (d :: _) ->
    Alcotest.fail
      (Printf.sprintf "chain %s diverged: %s" d.Oracle.d_chain
         d.Oracle.d_detail)

(* A variant where the spilling function is a *helper*: its spill area
   pushes the callee-saved save slots past the fixed offsets the old
   codegen used, and the caller keeps live values in callee-saved
   registers across the call — so a pass that mistakes the helper's
   epilogue restores for dead loads corrupts the caller.  Regression for
   exactly that bug in constant propagation's DCE. *)
let helper_locals = 56

let helper_pressure_src =
  let b = Buffer.create 4096 in
  Buffer.add_string b "int churn(int s) {\n";
  for i = 0 to helper_locals - 1 do
    Buffer.add_string b (Printf.sprintf "  int w%02d = s + %d;\n" i i)
  done;
  Buffer.add_string b "  for (int j = 0; j < 8; j++) {\n";
  for i = 0 to helper_locals - 1 do
    Buffer.add_string b
      (Printf.sprintf "    w%02d += w%02d %s j;\n" i
         ((i + 1) mod helper_locals)
         (if i mod 2 = 0 then "^" else "+"))
  done;
  Buffer.add_string b "  }\n  int acc = 0;\n";
  for i = 0 to helper_locals - 1 do
    Buffer.add_string b (Printf.sprintf "  acc ^= w%02d;\n" i)
  done;
  Buffer.add_string b "  return acc;\n}\n";
  Buffer.add_string b "int main() {\n";
  (* enough live-across-call values to occupy every callee-saved reg *)
  for i = 0 to 9 do
    Buffer.add_string b (Printf.sprintf "  int k%d = %d;\n" i (100 + i))
  done;
  Buffer.add_string b "  for (int i = 0; i < 16; i++) {\n";
  Buffer.add_string b "    int r = churn(i);\n";
  for i = 0 to 9 do
    Buffer.add_string b
      (Printf.sprintf "    k%d += %s;\n" i (if i = 0 then "r" else
         Printf.sprintf "k%d ^ r" (i - 1)))
  done;
  Buffer.add_string b "  }\n";
  for i = 0 to 9 do
    Buffer.add_string b (Printf.sprintf "  emit(k%d);\n" i)
  done;
  Buffer.add_string b "  return 0;\n}\n";
  Buffer.contents b

let test_helper_pressure_round_trip () =
  let p, info = Minic.compile_with_info helper_pressure_src in
  let churn =
    List.find (fun fa -> fa.Regalloc.fa_name = "churn") info.Regalloc.fallocs
  in
  (* the scenario only bites if the helper really spills past the old
     fixed callee-save window and banks callee-saved registers *)
  Alcotest.(check bool)
    "helper spill area exceeds 48 bytes" true
    (churn.Regalloc.fa_spill_area > 48);
  Alcotest.(check bool)
    "helper banks callee-saved registers" true
    (churn.Regalloc.fa_callee_saved <> []);
  match
    Oracle.check ~config:Oracle.interp_config
      ~transforms:Oracle.default_transforms p
  with
  | Oracle.Skipped reason -> Alcotest.fail ("oracle skipped: " ^ reason)
  | Oracle.Checked [] -> ()
  | Oracle.Checked (d :: _) ->
    Alcotest.fail
      (Printf.sprintf "chain %s diverged: %s" d.Oracle.d_chain
         d.Oracle.d_detail)

let test_termination_bound () =
  (* A program that needs at least one spill round cannot color within a
     single iteration; the allocator must report the divergence rather
     than loop. *)
  let pre = Minic.lower pressure_src in
  match Regalloc.program ~max_iterations:1 ~width_of:w64_of pre with
  | _ -> Alcotest.fail "expected Bound_exceeded"
  | exception Regalloc.Bound_exceeded { fname; iterations } ->
    Alcotest.(check string) "function" "main" fname;
    Alcotest.(check int) "iterations" 1 iterations

(* --- properties on random programs ----------------------------------------- *)

let equivalence_prop src =
  let pre =
    try Minic.lower src
    with Minic.Error msg -> QCheck.Test.fail_reportf "lower: %s" msg
  in
  let post =
    try Minic.compile src
    with Minic.Error msg -> QCheck.Test.fail_reportf "compile: %s" msg
  in
  match (Interp.run ~config:cfg pre, Interp.run ~config:cfg post) with
  | a, b ->
    if not (Int64.equal a.Interp.checksum b.Interp.checksum) then
      QCheck.Test.fail_reportf "checksum diverged: pre %Ld, post %Ld"
        a.Interp.checksum b.Interp.checksum
    else if a.Interp.emitted <> b.Interp.emitted then
      QCheck.Test.fail_reportf "emitted values diverged"
    else true
  | exception Interp.Fault msg -> QCheck.Test.fail_reportf "fault: %s" msg

let prop_equivalence =
  QCheck.Test.make
    ~name:"allocation preserves semantics (random programs)" ~count:120
    Gen_minic.arbitrary_program equivalence_prop

let prop_equivalence_pressure =
  QCheck.Test.make
    ~name:"allocation preserves semantics (pressure programs)" ~count:60
    Gen_minic.arbitrary_pressure_program equivalence_prop

let coloring_prop src =
  let pre =
    try Minic.lower src
    with Minic.Error msg -> QCheck.Test.fail_reportf "lower: %s" msg
  in
  match Regalloc.program ~check:true ~width_of:w64_of pre with
  | _ -> true
  | exception Invalid_argument msg ->
    QCheck.Test.fail_reportf "interference violated: %s" msg

let prop_no_interference =
  QCheck.Test.make
    ~name:"no interference edge shares a color (random programs)" ~count:120
    Gen_minic.arbitrary_program coloring_prop

let prop_no_interference_pressure =
  QCheck.Test.make
    ~name:"no interference edge shares a color (pressure programs)" ~count:60
    Gen_minic.arbitrary_pressure_program coloring_prop

let () =
  Alcotest.run "regalloc"
    [
      ( "pressure",
        [
          Alcotest.test_case "compiles and spills" `Quick
            test_pressure_compiles;
          Alcotest.test_case "pre/post equivalence" `Quick
            test_pressure_equivalence;
          Alcotest.test_case "chain round-trip" `Quick
            test_pressure_round_trip;
          Alcotest.test_case "spilling-helper chain round-trip" `Quick
            test_helper_pressure_round_trip;
          Alcotest.test_case "termination bound" `Quick test_termination_bound;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_equivalence; prop_equivalence_pressure; prop_no_interference;
            prop_no_interference_pressure;
          ] );
    ]
