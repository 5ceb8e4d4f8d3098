(* Tests for the IR substrate: bitsets, CFG analyses, use-def chains,
   validation and the reference interpreter. *)

open Ogc_isa
open Ogc_ir
module Gen_minic = Ogc_fuzz.Gen_minic

let lbl = Alcotest.testable Label.pp Label.equal
let r n = Reg.of_int n

(* A diamond with a loop around it:
     L0: entry -> L1
     L1: header; branch r1 -> L2 / L3
     L2: -> L4      L3: -> L4
     L4: branch r2 -> L1 (back edge) / L5
     L5: return *)
let diamond_loop () =
  let counter = ref 0 in
  let fresh_iid () = incr counter; !counter in
  let b = Builder.create ~fresh_iid ~fname:"f" ~arity:0 in
  let l0 = Builder.new_block b in
  let l1 = Builder.new_block b in
  let l2 = Builder.new_block b in
  let l3 = Builder.new_block b in
  let l4 = Builder.new_block b in
  let l5 = Builder.new_block b in
  Builder.switch_to b l0;
  ignore (Builder.ins b (Instr.Li { dst = r 1; imm = 0L }));
  ignore (Builder.ins b (Instr.Li { dst = r 2; imm = 0L }));
  Builder.terminate b (Prog.Jump l1);
  Builder.switch_to b l1;
  ignore (Builder.ins b (Instr.Alu { op = Instr.Add; width = Width.W64;
                                     src1 = r 1; src2 = Instr.Imm 1L; dst = r 1 }));
  Builder.terminate b
    (Prog.Branch { cond = Instr.Ne; src = r 1; if_true = l2; if_false = l3 });
  Builder.switch_to b l2;
  ignore (Builder.ins b (Instr.Li { dst = r 3; imm = 1L }));
  Builder.terminate b (Prog.Jump l4);
  Builder.switch_to b l3;
  ignore (Builder.ins b (Instr.Li { dst = r 3; imm = 2L }));
  Builder.terminate b (Prog.Jump l4);
  Builder.switch_to b l4;
  ignore (Builder.ins b (Instr.Alu { op = Instr.Add; width = Width.W64;
                                     src1 = r 3; src2 = Instr.Reg (r 1); dst = r 2 }));
  Builder.terminate b
    (Prog.Branch { cond = Instr.Lt; src = r 2; if_true = l1; if_false = l5 });
  Builder.switch_to b l5;
  ignore (Builder.ins b (Instr.Alu { op = Instr.Or; width = Width.W64;
                                     src1 = r 2; src2 = Instr.Imm 0L;
                                     dst = Reg.ret }));
  Builder.terminate b Prog.Return;
  (Builder.finish b ~frame_size:0, (l0, l1, l2, l3, l4, l5))

(* --- Bitset ----------------------------------------------------------------- *)

let test_bitset () =
  let s = Bitset.create 100 in
  Alcotest.(check int) "empty" 0 (Bitset.cardinal s);
  Bitset.set s 0;
  Bitset.set s 63;
  Bitset.set s 64;
  Bitset.set s 99;
  Alcotest.(check bool) "mem 63" true (Bitset.mem s 63);
  Alcotest.(check bool) "mem 64" true (Bitset.mem s 64);
  Alcotest.(check bool) "not mem 1" false (Bitset.mem s 1);
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Alcotest.(check (list int)) "elements" [ 0; 63; 64; 99 ] (Bitset.elements s);
  Bitset.clear s 63;
  Alcotest.(check bool) "cleared" false (Bitset.mem s 63);
  let t = Bitset.create 100 in
  Bitset.set t 5;
  Alcotest.(check bool) "union changes" true (Bitset.union_into ~into:t s);
  Alcotest.(check bool) "union stable" false (Bitset.union_into ~into:t s);
  Alcotest.(check int) "after union" 4 (Bitset.cardinal t);
  Bitset.diff_into ~into:t s;
  Alcotest.(check (list int)) "after diff" [ 5 ] (Bitset.elements t);
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index 100")
    (fun () -> Bitset.set s 100)

(* --- CFG -------------------------------------------------------------------- *)

let test_cfg () =
  let f, (l0, l1, l2, l3, l4, l5) = diamond_loop () in
  let cfg = Cfg.of_func f in
  Alcotest.(check int) "blocks" 6 (Cfg.num_blocks cfg);
  Alcotest.(check (list lbl)) "succ l1" [ l2; l3 ] (Cfg.succs cfg l1);
  Alcotest.(check (list lbl)) "pred l4" [ l2; l3 ] (Cfg.preds cfg l4);
  Alcotest.(check (list lbl)) "pred l1" [ l0; l4 ] (Cfg.preds cfg l1);
  Alcotest.(check bool) "reachable" true (Cfg.is_reachable cfg l5);
  let rpo = Cfg.reverse_postorder cfg in
  Alcotest.check lbl "rpo starts at entry" l0 (List.hd rpo);
  Alcotest.(check int) "rpo covers all" 6 (List.length rpo);
  (* header precedes its loop body in RPO *)
  let pos l = Option.get (List.find_index (Label.equal l) rpo) in
  Alcotest.(check bool) "l1 before l4" true (pos l1 < pos l4)

let test_dom () =
  let f, (l0, l1, l2, l3, l4, l5) = diamond_loop () in
  let cfg = Cfg.of_func f in
  let dom = Dom.compute cfg in
  Alcotest.(check (option lbl)) "idom l1" (Some l0) (Dom.idom dom l1);
  Alcotest.(check (option lbl)) "idom l2" (Some l1) (Dom.idom dom l2);
  Alcotest.(check (option lbl)) "idom l4 is the branch head" (Some l1)
    (Dom.idom dom l4);
  Alcotest.(check (option lbl)) "idom l5" (Some l4) (Dom.idom dom l5);
  Alcotest.(check (option lbl)) "entry has none" None (Dom.idom dom l0);
  Alcotest.(check bool) "l1 dominates l5" true (Dom.dominates dom l1 l5);
  Alcotest.(check bool) "l2 not dominates l4" false (Dom.dominates dom l2 l4);
  Alcotest.(check bool) "reflexive" true (Dom.dominates dom l3 l3)

let test_loops () =
  let f, (_, l1, l2, l3, l4, l5) = diamond_loop () in
  let cfg = Cfg.of_func f in
  let dom = Dom.compute cfg in
  let loops = Loops.compute cfg dom in
  Alcotest.(check int) "one loop" 1 (List.length (Loops.loops loops));
  let lo = List.hd (Loops.loops loops) in
  Alcotest.check lbl "header" l1 lo.Loops.header;
  Alcotest.(check (list lbl)) "latch" [ l4 ] lo.Loops.latches;
  Alcotest.(check int) "body size" 4 (Label.Set.cardinal lo.Loops.body);
  Alcotest.(check bool) "body has l2 l3" true
    (Label.Set.mem l2 lo.Loops.body && Label.Set.mem l3 lo.Loops.body);
  Alcotest.(check bool) "exit edge to l5" true
    (List.exists (fun (_, t) -> Label.equal t l5) lo.Loops.exits);
  Alcotest.(check int) "depth of l4" 1 (Loops.depth loops l4);
  Alcotest.(check int) "depth of l5" 0 (Loops.depth loops l5)

let test_liveness () =
  let f, (l0, l1, _, _, l4, l5) = diamond_loop () in
  let cfg = Cfg.of_func f in
  let live = Liveness.compute f cfg in
  (* r1 is live around the loop; r2 is live at the l4 branch. *)
  Alcotest.(check bool) "r1 live into l1" true
    (Reg.Set.mem (r 1) (Liveness.live_in live l1));
  Alcotest.(check bool) "r2 live into l5" true
    (Reg.Set.mem (r 2) (Liveness.live_in live l5));
  Alcotest.(check bool) "r3 not live into l1" false
    (Reg.Set.mem (r 3) (Liveness.live_in live l1));
  Alcotest.(check bool) "nothing live into entry" false
    (Reg.Set.mem (r 1) (Liveness.live_in live l0));
  Alcotest.(check bool) "r2 live out of l4 (branch + successors)" true
    (Reg.Set.mem (r 2) (Liveness.live_out live l4))

let test_usedef () =
  let f, _ = diamond_loop () in
  let cfg = Cfg.of_func f in
  let ud = Usedef.compute f cfg in
  (* Defs: 32 entry pseudo-defs + 7 instruction defs. *)
  Alcotest.(check int) "def count" 39 (Usedef.num_defs ud);
  (* The add in L1 (iid 4; terminators consume iids 3/5/...) reads r1
     from the entry init (iid 1) and itself (loop-carried). *)
  let reaching = Usedef.reaching_uses ud ~use_iid:4 ~reg:(r 1) in
  let sites =
    List.map
      (fun di ->
        match (Usedef.def ud di).Usedef.site with
        | Usedef.Entry -> -1
        | Usedef.At iid -> iid)
      reaching
    |> List.sort compare
  in
  Alcotest.(check (list int)) "loop-carried reaching defs" [ 1; 4 ] sites;
  (* Dependents of the loop add include the final Or (iid 12). *)
  let deps = Usedef.dependents ud ~iid:4 in
  Alcotest.(check bool) "or depends on add" true (Hashtbl.mem deps 12);
  Alcotest.(check bool) "r3 li does not appear" false (Hashtbl.mem deps 6)

(* --- call graph ------------------------------------------------------------------ *)

let test_callgraph () =
  let p = Ogc_minic.Minic.compile {|
    int leaf(int x) { return x + 1; }
    int middle(int x) { return leaf(x) + leaf(x + 1); }
    int looper(int x) { if (x <= 0) return 0; return looper(x - 1) + 1; }
    int uncalled(int x) { return x; }
    int main() {
      emit(middle(3));
      emit(looper(4));
      return 0;
    }
  |} in
  let cg = Callgraph.compute p in
  Alcotest.(check (list string)) "main calls" [ "looper"; "middle" ]
    (List.sort compare (Callgraph.callees cg "main"));
  Alcotest.(check (list string)) "leaf called by" [ "middle" ]
    (Callgraph.callers cg "leaf");
  Alcotest.(check int) "two call sites of leaf" 2
    (List.length (Callgraph.call_sites cg "leaf"));
  Alcotest.(check bool) "looper recursive" true (Callgraph.is_recursive cg "looper");
  Alcotest.(check bool) "leaf not recursive" false (Callgraph.is_recursive cg "leaf");
  (* bottom-up: callees before callers *)
  let order = Callgraph.bottom_up cg in
  let pos f = Option.get (List.find_index (String.equal f) order) in
  Alcotest.(check bool) "leaf before middle" true (pos "leaf" < pos "middle");
  Alcotest.(check bool) "middle before main" true (pos "middle" < pos "main");
  Alcotest.(check bool) "uncalled function still ordered" true
    (List.mem "uncalled" order)

let test_callgraph_mutual_recursion () =
  let p = Ogc_minic.Minic.compile {|
    int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }
    int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }
    int main() { emit(is_even(10)); return 0; }
  |} in
  let cg = Callgraph.compute p in
  Alcotest.(check bool) "mutual recursion detected" true
    (Callgraph.is_recursive cg "is_even" && Callgraph.is_recursive cg "is_odd")

(* --- Validation --------------------------------------------------------------- *)

let compile src = Ogc_minic.Minic.compile src

let test_validate () =
  let p = compile "int main() { return 0; }" in
  Validate.program p;
  (* Break a branch target. *)
  let f = Prog.find_func p "main" in
  let bad = Label.of_int 999 in
  f.Prog.blocks.(0).Prog.term <- Prog.Jump bad;
  Alcotest.check_raises "dangling label"
    (Validate.Invalid "main: label L999 out of range") (fun () ->
      Validate.program p)

let test_validate_duplicate_iids () =
  let p = compile "int main() { return 0; }" in
  let f = Prog.find_func p "main" in
  (* Duplicate an instruction id by copying a block body element. *)
  let b = f.Prog.blocks.(2) in
  (match b.Prog.body with
  | [||] -> ()
  | body -> b.Prog.body <- Array.append body [| body.(0) |]);
  if Array.length b.Prog.body > 1 then
    Alcotest.check_raises "duplicate iid"
      (Validate.Invalid
         (Printf.sprintf "main: duplicate instruction id %d"
            b.Prog.body.(0).Prog.iid))
      (fun () -> Validate.program p)

(* --- Interpreter ---------------------------------------------------------------- *)

let run src = Interp.run (compile src)

let test_interp_arith () =
  let out = run {|
    int main() {
      emit(7 * 6);
      emit(100 / 7);
      emit(100 % 7);
      emit(-7 >> 1);
      emit(1 << 10);
      emit(0x7fffffff + 1);   // 32-bit wrap
      long big = 0x7fffffff;
      emit(big + 1);          // 64-bit: no wrap
      return 0;
    }
  |} in
  Alcotest.(check (list int64))
    "values"
    [ 42L; 14L; 2L; -4L; 1024L; Int64.neg 0x8000_0000L; 0x8000_0000L ]
    out.Interp.emitted

let test_interp_memory () =
  let out = run {|
    char bytes[8];
    short halves[4];
    long words[2];
    int main() {
      bytes[0] = (char)300;       // truncates to 44
      halves[1] = (short)(-70000); // truncates
      words[1] = 1;
      words[1] = words[1] << 40;
      emit(bytes[0]);
      emit(halves[1]);
      emit(words[1]);
      return 0;
    }
  |} in
  Alcotest.(check (list int64)) "memory round trips"
    [ 44L; Int64.of_int (-70000 land 0xFFFF |> fun x -> if x >= 32768 then x - 65536 else x);
      Int64.shift_left 1L 40 ]
    out.Interp.emitted

let test_interp_calls () =
  let out = run {|
    int twice(int x) { return x * 2; }
    long sum3(long a, long b, long c) { return a + b + c; }
    int main() {
      emit(twice(21));
      emit(sum3(1, 2, 3));
      emit(twice(twice(10)));
      return 0;
    }
  |} in
  Alcotest.(check (list int64)) "calls" [ 42L; 6L; 40L ] out.Interp.emitted

let test_interp_fault_oob () =
  let p = compile {|
    int a[4];
    int main() {
      int i = 5000000;
      a[i] = 1;
      return 0;
    }
  |} in
  match Interp.run p with
  | exception Interp.Fault _ -> ()
  | _ -> Alcotest.fail "expected a memory fault"

let test_interp_budget () =
  let p = compile "int main() { while (1) { } return 0; }" in
  match Interp.run ~config:{ Interp.default_config with max_steps = 1000 } p with
  | exception Interp.Fault msg ->
    Alcotest.(check bool) "mentions budget" true
      (String.length msg > 0)
  | _ -> Alcotest.fail "expected a step-budget fault"

(* Interpreter memory is reused across runs: whatever a run writes, and
   however it ends, the next run must start from all-zero memory.  The
   writer's global is non-zero and spans two 64 KiB pages; the writer
   stores into its first word, 1 MiB below the initial stack pointer,
   into the last word of memory and across a page boundary, then ends as
   [finish] says.  The reader has no globals and loads the stored words
   and the global's last word, on a page only its image wrote. *)
let mem_size = Interp.default_config.Interp.mem_size
let at off = Int64.add Interp.virtual_base (Int64.of_int off)
let global_bytes = 0x12000

let stored_addresses =
  [ at 4096;  (* the global's first word *)
    at (mem_size - 64 - (1 lsl 20));  (* 1 MiB below the initial sp *)
    at (mem_size - 8);  (* the last word of memory *)
    at ((4 lsl 16) - 4) (* an 8-byte store straddling a page boundary *) ]

let read_addresses = at (4096 + global_bytes - 8) :: stored_addresses

let straight_line ?globals ~body ~finish () =
  let counter = ref 0 in
  let fresh_iid () = incr counter; !counter in
  let b = Builder.create ~fresh_iid ~fname:"main" ~arity:0 in
  let entry = Builder.new_block b in
  let spin = Builder.new_block b in
  Builder.switch_to b entry;
  List.iter (fun i -> ignore (Builder.ins b i)) body;
  let term =
    match finish with
    | `Return -> Prog.Return
    | `Oob_store ->
      ignore (Builder.ins b (Instr.Li { dst = r 1; imm = at mem_size }));
      ignore (Builder.ins b (Instr.Store { width = Width.W8; base = r 1;
                                           offset = 0L; src = r 2 }));
      Prog.Return
    | `Spin -> Prog.Jump spin
  in
  Builder.terminate b term;
  Builder.switch_to b spin;
  Builder.terminate b (Prog.Jump spin);
  Prog.create ?globals [ Builder.finish b ~frame_size:0 ]

let writer finish =
  let store a =
    [ Instr.Li { dst = r 1; imm = a };
      Instr.Store { width = Width.W64; base = r 1; offset = 0L; src = r 2 } ]
  in
  straight_line ~finish
    ~globals:[ { Prog.gname = "g"; init = Bytes.make global_bytes '\xab' } ]
    ~body:(Instr.Li { dst = r 2; imm = 0x0102_0304_0506_0708L }
           :: List.concat_map store stored_addresses)
    ()

let reader () =
  let load a =
    [ Instr.Li { dst = r 1; imm = a };
      Instr.Load { width = Width.W64; signed = false; base = r 1;
                   offset = 0L; dst = r 3 };
      Instr.Emit { src = r 3 } ]
  in
  straight_line ~finish:`Return ~body:(List.concat_map load read_addresses) ()

let check_reader_sees_zeros what =
  Alcotest.(check (list int64)) (what ^ ": next run reads zeros")
    (List.map (fun _ -> 0L) read_addresses)
    (Interp.run (reader ())).Interp.emitted

let test_interp_memory_reuse () =
  let w = writer `Return in
  let out = Interp.run w in
  Alcotest.(check int) "writer ran to its return" 10 out.Interp.steps;
  check_reader_sees_zeros "return";
  (match Interp.run (writer `Oob_store) with
  | exception Interp.Fault _ -> ()
  | _ -> Alcotest.fail "expected an out-of-bounds fault");
  check_reader_sees_zeros "out-of-bounds fault";
  (match
     Interp.run ~config:{ Interp.default_config with max_steps = 100 }
       (writer `Spin)
   with
  | exception Interp.Fault _ -> ()
  | _ -> Alcotest.fail "expected a step-budget fault");
  check_reader_sees_zeros "step budget";
  let stop_at_return = function
    | Interp.E_return _ -> raise Exit
    | _ -> ()
  in
  (match Interp.run ~on_event:stop_at_return (writer `Return) with
  | exception Exit -> ()
  | _ -> Alcotest.fail "expected the hook's exception");
  check_reader_sees_zeros "hook raised"

let test_interp_bb_counts () =
  let p = compile {|
    int main() {
      long s = 0;
      for (int i = 0; i < 10; i++) s += i;
      emit(s);
      return 0;
    }
  |} in
  let counts : Interp.bb_counts = Hashtbl.create 8 in
  let out = Interp.run ~bb_counts:counts p in
  Alcotest.(check (list int64)) "sum" [ 45L ] out.Interp.emitted;
  (* Some block must execute exactly 10 times (the loop body). *)
  let tens = ref 0 in
  Hashtbl.iter
    (fun _ arr -> Array.iter (fun c -> if c = 10 then incr tens) arr)
    counts;
  Alcotest.(check bool) "a block ran 10 times" true (!tens >= 1)

let test_interp_events () =
  let p = compile {|
    int main() {
      long s = 1;
      if (s > 0) s = 41 + s;
      emit(s);
      return 0;
    }
  |} in
  let branches = ref 0 and instrs = ref 0 and returns = ref 0 in
  let on_event = function
    | Interp.E_branch _ -> incr branches
    | Interp.E_ins _ -> incr instrs
    | Interp.E_jump _ -> ()
    | Interp.E_return _ -> incr returns
  in
  let out = Interp.run ~on_event p in
  Alcotest.(check int) "one conditional branch" 1 !branches;
  Alcotest.(check int) "one return" 1 !returns;
  Alcotest.(check bool) "instructions seen" true (!instrs > 3);
  Alcotest.(check (list int64)) "result" [ 42L ] out.Interp.emitted

let test_global_addresses () =
  let p = compile {|
    long a;
    char b[100];
    long c;
    int main() { return 0; }
  |} in
  let addrs = Interp.global_addresses p in
  let get n = List.assoc n addrs in
  Alcotest.(check bool) "above virtual base" true
    (Int64.compare (get "a") Interp.virtual_base > 0);
  Alcotest.(check bool) "aligned" true
    (List.for_all (fun (_, a) -> Int64.rem a 8L = 0L) addrs);
  Alcotest.(check bool) "non-overlapping" true
    (Int64.compare (get "b") (Int64.add (get "a") 8L) >= 0
     && Int64.compare (get "c") (Int64.add (get "b") 100L) >= 0);
  (* Addresses need 33-40 bits, matching the paper's Figure 12 peak. *)
  Alcotest.(check bool) "address width is 5 bytes" true
    (let bytes = Ogc_gating.Sigbytes.significant_bytes (get "a") in
     bytes = 5)

(* --- assembly round-trip --------------------------------------------------------- *)

let test_asm_roundtrip_simple () =
  let p = compile {|
    long counter = 42;
    char tab[5] = {1, 2, 3};
    int helper(int x) { return x * 3 + 1; }
    int main() {
      long s = counter;
      for (int i = 0; i < 10; i++) s += helper(i) > 5 ? i : -i;
      emit(s);
      return 0;
    }
  |} in
  let text = Asm.to_string p in
  let q = Asm.parse text in
  Validate.program q;
  Alcotest.(check string) "round-trip is a fixpoint" text (Asm.to_string q);
  Alcotest.(check int64) "same behaviour" (Interp.run p).Interp.checksum
    (Interp.run q).Interp.checksum;
  Alcotest.(check int) "same static size" (Prog.num_static_ins p)
    (Prog.num_static_ins q)

let test_asm_preserves_iids () =
  let p = compile "int main() { emit(1 + 2); return 0; }" in
  let q = Asm.parse (Asm.to_string p) in
  let ids prog =
    let acc = ref [] in
    Prog.iter_all_ins prog (fun _ _ ins -> acc := ins.Prog.iid :: !acc);
    List.sort compare !acc
  in
  Alcotest.(check (list int)) "iids preserved" (ids p) (ids q)

let test_asm_errors () =
  let expect_err text sub =
    match Asm.parse text with
    | exception Asm.Error msg ->
      let n = String.length sub in
      let rec go i =
        i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1))
      in
      Alcotest.(check bool) (sub ^ " in " ^ msg) true (go 0)
    | _ -> Alcotest.fail ("expected parse error for: " ^ text)
  in
  expect_err "garbage" "cannot parse";
  expect_err "global g[4] = 0102" "2 bytes of data";
  expect_err "func f(0) frame=0\nL0:\n  [1] bad r1, r2, r3" "cannot parse instruction";
  expect_err "func f(0) frame=0\nL0:\n  [1] li #3, r1" "no terminator"

let test_asm_roundtrip_after_vrs () =
  (* The save format survives the optimizer's clones and guards. *)
  let w = Ogc_workloads.Workload.find "vortex" in
  let p = Ogc_workloads.Workload.compile w Ogc_workloads.Workload.Train in
  ignore (Ogc_core.Vrs.run p);
  let q = Asm.parse (Asm.to_string p) in
  Validate.program q;
  Alcotest.(check int64) "same behaviour"
    (Interp.run p).Interp.checksum (Interp.run q).Interp.checksum;
  Alcotest.(check string) "fixpoint" (Asm.to_string p) (Asm.to_string q)

let prop_asm_roundtrip_random =
  QCheck.Test.make ~name:"assembly round-trips random programs" ~count:150
    Gen_minic.arbitrary_program (fun src ->
      let p = Ogc_minic.Minic.compile src in
      let text = Asm.to_string p in
      let q = try Asm.parse text with Asm.Error m -> QCheck.Test.fail_reportf "parse: %s" m in
      Validate.program q;
      String.equal text (Asm.to_string q))

let () =
  Alcotest.run "ir"
    [
      ("bitset", [ Alcotest.test_case "operations" `Quick test_bitset ]);
      ( "cfg",
        [
          Alcotest.test_case "edges and rpo" `Quick test_cfg;
          Alcotest.test_case "dominators" `Quick test_dom;
          Alcotest.test_case "loops" `Quick test_loops;
          Alcotest.test_case "liveness" `Quick test_liveness;
          Alcotest.test_case "use-def" `Quick test_usedef;
        ] );
      ( "callgraph",
        [
          Alcotest.test_case "structure" `Quick test_callgraph;
          Alcotest.test_case "mutual recursion" `Quick
            test_callgraph_mutual_recursion;
        ] );
      ( "validate",
        [
          Alcotest.test_case "dangling label" `Quick test_validate;
          Alcotest.test_case "duplicate iids" `Quick test_validate_duplicate_iids;
        ] );
      ( "interp",
        [
          Alcotest.test_case "arithmetic" `Quick test_interp_arith;
          Alcotest.test_case "memory" `Quick test_interp_memory;
          Alcotest.test_case "calls" `Quick test_interp_calls;
          Alcotest.test_case "oob fault" `Quick test_interp_fault_oob;
          Alcotest.test_case "step budget" `Quick test_interp_budget;
          Alcotest.test_case "reused memory starts zeroed" `Quick
            test_interp_memory_reuse;
          Alcotest.test_case "bb counts" `Quick test_interp_bb_counts;
          Alcotest.test_case "events" `Quick test_interp_events;
          Alcotest.test_case "global layout" `Quick test_global_addresses;
        ] );
      ( "asm",
        [
          Alcotest.test_case "round-trip" `Quick test_asm_roundtrip_simple;
          Alcotest.test_case "iids preserved" `Quick test_asm_preserves_iids;
          Alcotest.test_case "errors" `Quick test_asm_errors;
          Alcotest.test_case "round-trip after VRS" `Slow
            test_asm_roundtrip_after_vrs;
          QCheck_alcotest.to_alcotest prop_asm_roundtrip_random;
        ] );
    ]
