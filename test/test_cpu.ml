(* Tests for the timing model: branch predictors, caches, and pipeline
   behaviour on programs with known characteristics. *)

module Bpred = Ogc_cpu.Bpred
module Cache = Ogc_cpu.Cache
module Mc = Ogc_cpu.Machine_config
module Pipeline = Ogc_cpu.Pipeline
module Policy = Ogc_gating.Policy
module Minic = Ogc_minic.Minic

(* --- branch predictors ----------------------------------------------------------- *)

let train p pc taken n =
  for _ = 1 to n do
    ignore (Bpred.predict p ~pc);
    Bpred.update p ~pc ~taken
  done

let test_bimodal_learns () =
  let p = Bpred.create_bimodal ~entries:64 in
  train p 4 true 10;
  Alcotest.(check bool) "predicts taken" true (Bpred.predict p ~pc:4);
  train p 4 false 10;
  Alcotest.(check bool) "re-learns not-taken" false (Bpred.predict p ~pc:4)

let test_bimodal_aliasing () =
  (* Same table index for pc and pc+entries: intentional aliasing. *)
  let p = Bpred.create_bimodal ~entries:16 in
  train p 3 true 10;
  Alcotest.(check bool) "aliased branch shares the counter" true
    (Bpred.predict p ~pc:19)

let test_gshare_learns_pattern () =
  (* An alternating branch is hard for bimodal but easy for gshare. *)
  let g = Bpred.create_gshare ~entries:1024 ~history_bits:8 in
  let correct = ref 0 in
  let taken = ref false in
  for i = 1 to 400 do
    taken := not !taken;
    let pred = Bpred.predict g ~pc:8 in
    if pred = !taken && i > 100 then incr correct;
    Bpred.update g ~pc:8 ~taken:!taken
  done;
  Alcotest.(check bool) "gshare learns alternation" true (!correct > 280)

let test_combined_beats_components () =
  let c = Bpred.of_config Mc.default in
  (* A strongly biased branch: everything should converge. *)
  train c 12 true 50;
  Alcotest.(check bool) "combined converges" true (Bpred.predict c ~pc:12);
  let _, mis = Bpred.stats c in
  Alcotest.(check bool) "few mispredictions" true (mis < 5)

(* --- caches ------------------------------------------------------------------------ *)

let test_cache_hit_miss () =
  let c = Cache.create { Mc.size_bytes = 1024; ways = 2; line_bytes = 32 } in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0L);
  Alcotest.(check bool) "hit" true (Cache.access c 0L);
  Alcotest.(check bool) "same line" true (Cache.access c 31L);
  Alcotest.(check bool) "next line misses" false (Cache.access c 32L);
  let acc, mis = Cache.stats c in
  Alcotest.(check (pair int int)) "stats" (4, 2) (acc, mis)

let test_cache_lru () =
  (* 2-way, 16 sets: three lines mapping to set 0 thrash with LRU. *)
  let c = Cache.create { Mc.size_bytes = 1024; ways = 2; line_bytes = 32 } in
  let line n = Int64.of_int (n * 512) in
  ignore (Cache.access c (line 0));
  ignore (Cache.access c (line 1));
  Alcotest.(check bool) "both resident" true
    (Cache.access c (line 0) && Cache.access c (line 1));
  ignore (Cache.access c (line 2));
  (* evicts line 0 (LRU) *)
  Alcotest.(check bool) "line1 still resident" true (Cache.access c (line 1));
  Alcotest.(check bool) "line0 evicted" false (Cache.access c (line 0))

let test_cache_capacity () =
  (* Streaming through twice the capacity must miss on the second pass. *)
  let c = Cache.create { Mc.size_bytes = 1024; ways = 2; line_bytes = 32 } in
  for i = 0 to 63 do
    ignore (Cache.access c (Int64.of_int (i * 32)))
  done;
  Cache.reset_stats c;
  for i = 0 to 63 do
    ignore (Cache.access c (Int64.of_int (i * 32)))
  done;
  let _, mis = Cache.stats c in
  Alcotest.(check bool) "stream misses" true (mis > 32)

(* --- pipeline --------------------------------------------------------------------- *)

let simulate src = Pipeline.simulate ~policy:Policy.No_gating (Minic.compile src)

let test_pipeline_basics () =
  let s = simulate {|
    int main() {
      long acc = 0;
      for (int i = 0; i < 1000; i++) acc += i;
      emit(acc);
      return 0;
    }
  |} in
  Alcotest.(check bool) "instructions counted" true (s.Pipeline.instructions > 5000);
  Alcotest.(check bool) "cycles positive" true (s.Pipeline.cycles > 0);
  let ipc = Pipeline.ipc s in
  Alcotest.(check bool) "ipc plausible for a 4-wide machine" true
    (ipc > 0.3 && ipc <= 4.0);
  Alcotest.(check bool) "branches seen" true (s.Pipeline.branches >= 1000);
  Alcotest.(check bool) "loop branch predictable" true
    (float_of_int s.Pipeline.mispredictions
     < 0.1 *. float_of_int s.Pipeline.branches);
  Alcotest.(check bool) "energy accumulated" true
    (Ogc_energy.Account.total s.Pipeline.energy > 0.0)

let test_pipeline_serial_vs_parallel () =
  (* A dependence chain must be slower than independent operations. *)
  let serial = simulate {|
    long x = 1;
    int main() {
      long a = x;
      for (int i = 0; i < 2000; i++) a = a * 3 + 1;
      emit(a);
      return 0;
    }
  |} in
  let parallel = simulate {|
    long x = 1;
    int main() {
      long a = x; long b = x; long c = x; long d = x;
      for (int i = 0; i < 2000; i++) {
        a += 3; b += 5; c += 7; d += 9;
      }
      emit(a + b + c + d);
      return 0;
    }
  |} in
  let ipc_s = Pipeline.ipc serial and ipc_p = Pipeline.ipc parallel in
  Alcotest.(check bool)
    (Printf.sprintf "parallel (%.2f) beats serial mul chain (%.2f)" ipc_p ipc_s)
    true (ipc_p > ipc_s)

let test_pipeline_cache_pressure () =
  (* Striding past the L1 must cost misses and cycles. *)
  let friendly = simulate {|
    long buf[16384];
    int main() {
      long s = 0;
      for (int r = 0; r < 32; r++)
        for (int i = 0; i < 512; i++) s += buf[i];
      emit(s);
      return 0;
    }
  |} in
  let hostile = simulate {|
    long buf[16384];
    int main() {
      long s = 0;
      for (int r = 0; r < 32; r++)
        for (int i = 0; i < 512; i++) s += buf[i * 32 & 16383];
      emit(s);
      return 0;
    }
  |} in
  Alcotest.(check bool) "friendly mostly hits" true
    (friendly.Pipeline.dcache_misses * 20 < friendly.Pipeline.dcache_accesses);
  Alcotest.(check bool) "hostile misses more" true
    (hostile.Pipeline.dcache_misses > friendly.Pipeline.dcache_misses * 4)

let test_pipeline_mispredict_cost () =
  (* Data-dependent unpredictable branches cost cycles per instruction. *)
  let predictable = simulate {|
    int seed = 1;
    int main() {
      long s = 0;
      for (int i = 0; i < 4000; i++) {
        if (i >= 0) s += 1; else s -= 1;
      }
      emit(s);
      return 0;
    }
  |} in
  let random = simulate {|
    int seed = 1;
    int main() {
      long s = 0;
      for (int i = 0; i < 4000; i++) {
        seed = seed * 1103515245 + 12345;
        if (((seed >> 16) & 1) == 1) s += 1; else s -= 1;
      }
      emit(s);
      return 0;
    }
  |} in
  Alcotest.(check bool) "random branches mispredict" true
    (random.Pipeline.mispredictions > predictable.Pipeline.mispredictions * 5)

let test_policy_energy_ordering () =
  let p = Minic.compile {|
    int data[512];
    int main() {
      long s = 0;
      for (int i = 0; i < 512; i++) data[i] = i & 63;
      for (int r = 0; r < 20; r++)
        for (int i = 0; i < 512; i++) s += data[i];
      emit(s);
      return 0;
    }
  |} in
  let e policy =
    Ogc_energy.Account.total (Pipeline.simulate ~policy p).Pipeline.energy
  in
  let none = e Policy.No_gating in
  let sig_ = e Policy.Hw_significance in
  let size = e Policy.Hw_size in
  Alcotest.(check bool) "gating saves energy" true (sig_ < none && size < none);
  Alcotest.(check bool) "significance at least as tight as size classes" true
    (sig_ <= size +. (0.05 *. none))

let test_timing_independent_of_policy () =
  (* Gating changes energy, never cycles. *)
  let p = Minic.compile {|
    int main() {
      long s = 0;
      for (int i = 0; i < 500; i++) s += i * i;
      emit(s);
      return 0;
    }
  |} in
  let c policy = (Pipeline.simulate ~policy p).Pipeline.cycles in
  let base = c Policy.No_gating in
  List.iter
    (fun pol -> Alcotest.(check int) (Policy.name pol) base (c pol))
    Policy.all

let test_window_pressure () =
  (* A long L2-missing load chain stalls dispatch via the 64-entry window:
     IPC must collapse well below the cache-friendly version. *)
  let slow = simulate {|
    long buf[65536];
    int seed = 7;
    int main() {
      long s = 0;
      int idx = 1;
      for (int i = 0; i < 3000; i++) {
        idx = (idx * 1103515245 + 12345) & 65535;
        s += buf[idx];       // dependent random walk
        idx = (int)(idx + s) & 65535;
      }
      emit(s);
      return 0;
    }
  |} in
  let fast = simulate {|
    long buf[65536];
    int main() {
      long s = 0;
      for (int i = 0; i < 3000; i++) s += buf[i & 511];
      emit(s);
      return 0;
    }
  |} in
  Alcotest.(check bool)
    (Printf.sprintf "random-walk IPC %.2f << streaming IPC %.2f"
       (Pipeline.ipc slow) (Pipeline.ipc fast))
    true
    (Pipeline.ipc slow < Pipeline.ipc fast)

let test_muldiv_contention () =
  (* One mul/div unit: a div-heavy loop is much slower than an add loop of
     the same instruction count. *)
  let divs = simulate {|
    int main() {
      long s = 1;
      for (int i = 1; i < 2000; i++) s += 100000 / i;
      emit(s);
      return 0;
    }
  |} in
  let adds = simulate {|
    int main() {
      long s = 1;
      for (int i = 1; i < 2000; i++) s += 100000 + i;
      emit(s);
      return 0;
    }
  |} in
  Alcotest.(check bool) "divides cost cycles" true
    (divs.Pipeline.cycles > adds.Pipeline.cycles * 2)

let test_store_load_dependence () =
  (* A tight store/load ping-pong through one memory word must be slower
     than the same arithmetic kept in registers. *)
  let through_memory = simulate {|
    long cell[1];
    int main() {
      cell[0] = 1;
      for (int i = 0; i < 3000; i++) {
        cell[0] = cell[0] + i;   // load depends on last store
      }
      emit(cell[0]);
      return 0;
    }
  |} in
  let in_registers = simulate {|
    int main() {
      long c = 1;
      for (int i = 0; i < 3000; i++) c = c + i;
      emit(c);
      return 0;
    }
  |} in
  Alcotest.(check bool)
    (Printf.sprintf "memory ping-pong (%d cyc) slower than registers (%d cyc)"
       through_memory.Pipeline.cycles in_registers.Pipeline.cycles)
    true
    (through_memory.Pipeline.cycles > in_registers.Pipeline.cycles)

let test_btb_warmup () =
  (* The same loop body: after warm-up, taken-branch target bubbles stop;
     a tiny run pays proportionally more front-end cost than a long one. *)
  let cyc n = (simulate (Printf.sprintf {|
    int main() {
      long s = 0;
      for (int i = 0; i < %d; i++) s += i;
      emit(s);
      return 0;
    }
  |} n)).Pipeline.cycles in
  let short_run = cyc 50 and long_run = cyc 5000 in
  let per_iter_short = float_of_int short_run /. 50.0 in
  let per_iter_long = float_of_int long_run /. 5000.0 in
  Alcotest.(check bool)
    (Printf.sprintf "cold cycles/iter %.1f > warm %.1f" per_iter_short
       per_iter_long)
    true
    (per_iter_short > per_iter_long)

let test_memory_modes () =
  (* §2.4: tagging narrow values in the cache must beat sign-extending
     them for the software scheme, and never change timing. *)
  let p = Minic.compile {|
    char data[2048];
    int main() {
      long s = 0;
      for (int i = 0; i < 2048; i++) data[i] = (char)(i * 11);
      for (int r = 0; r < 10; r++)
        for (int i = 0; i < 2048; i++) s += data[i];
      emit(s);
      return 0;
    }
  |} in
  ignore (Ogc_core.Vrp.run p);
  let tagged =
    Pipeline.simulate ~memory_mode:Pipeline.Tagged ~policy:Policy.Software p
  in
  let sext =
    Pipeline.simulate ~memory_mode:Pipeline.Sign_extend ~policy:Policy.Software p
  in
  Alcotest.(check int) "same cycles" tagged.Pipeline.cycles sext.Pipeline.cycles;
  Alcotest.(check bool) "tagged cache saves energy on byte traffic" true
    (Ogc_energy.Account.total tagged.Pipeline.energy
     < Ogc_energy.Account.total sext.Pipeline.energy)

let test_machine_variants () =
  let p = Minic.compile {|
    int main() {
      long a = 0; long b = 0; long c = 0; long d = 0;
      for (int i = 0; i < 3000; i++) { a += i; b ^= i; c += b; d |= a; }
      emit(a + b + c + d);
      return 0;
    }
  |} in
  let cyc machine =
    (Pipeline.simulate ~machine ~policy:Policy.No_gating p).Pipeline.cycles
  in
  let n2 = cyc Mc.narrow2 and n4 = cyc Mc.default and n8 = cyc Mc.wide8 in
  Alcotest.(check bool)
    (Printf.sprintf "2-wide %d > 4-wide %d >= 8-wide %d" n2 n4 n8)
    true
    (n2 > n4 && n4 >= n8)

let test_machine_config_rows () =
  Alcotest.(check int) "table 2 has 11 rows" 11
    (List.length (Mc.rows Mc.default));
  Alcotest.(check int) "window" 64 Mc.default.Mc.window_size;
  Alcotest.(check int) "phys regs" 96 Mc.default.Mc.phys_regs

(* --- reuse across runs ---------------------------------------------------------- *)

(* Runs reuse the interpreter's memory and the reservation rings through
   free lists; a run must not see anything an earlier one left behind. *)
let reuse_p = {|
  long a[64];
  long f(long x) { return x * 3 + x / 7; }
  int main() {
    long s = 0;
    for (int i = 0; i < 300; i++) {
      a[i & 63] = f(i) + s;
      s += a[(i * 5) & 63] % 11;
      if (s > 1000) s -= 977;
    }
    emit(s);
    return 0;
  }
|}

let reuse_q = {|
  long b[4096];
  int main() {
    long t = 1;
    for (int i = 0; i < 4096; i++) {
      b[(i * 7) & 4095] = b[i] + t * i;
      t = (t * 5 + b[(i * 3) & 4095]) % 1000003;
    }
    emit(t);
    return 0;
  }
|}

let bindings tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let energy_bits (s : Pipeline.stats) =
  Int64.bits_of_float (Ogc_energy.Account.spill_traffic s.Pipeline.energy)
  :: List.map
       (fun (_, e) -> Int64.bits_of_float e)
       (Ogc_energy.Account.by_structure s.Pipeline.energy)

let check_same_stats what (a : Pipeline.stats) (b : Pipeline.stats) =
  let int name f = Alcotest.(check int) (what ^ ": " ^ name) (f a) (f b) in
  int "cycles" (fun s -> s.Pipeline.cycles);
  int "instructions" (fun s -> s.Pipeline.instructions);
  int "branches" (fun s -> s.Pipeline.branches);
  int "mispredictions" (fun s -> s.Pipeline.mispredictions);
  int "icache misses" (fun s -> s.Pipeline.icache_misses);
  int "dcache accesses" (fun s -> s.Pipeline.dcache_accesses);
  int "dcache misses" (fun s -> s.Pipeline.dcache_misses);
  int "l2 misses" (fun s -> s.Pipeline.l2_misses);
  Alcotest.(check (list int64)) (what ^ ": energy bits") (energy_bits a)
    (energy_bits b);
  Alcotest.(check bool) (what ^ ": class_width") true
    (bindings a.Pipeline.class_width = bindings b.Pipeline.class_width);
  Alcotest.(check bool) (what ^ ": opcode_counts") true
    (bindings a.Pipeline.opcode_counts = bindings b.Pipeline.opcode_counts);
  Alcotest.(check (array int)) (what ^ ": sigbyte histogram")
    a.Pipeline.sigbyte_histogram b.Pipeline.sigbyte_histogram;
  Alcotest.(check int64) (what ^ ": checksum") a.Pipeline.checksum
    b.Pipeline.checksum

let narrowed src =
  let p = Minic.compile src in
  ignore (Ogc_core.Vrp.run p);
  p

let test_reuse_is_exact () =
  let p = narrowed reuse_p and q = narrowed reuse_q in
  let spill iid = if iid mod 3 = 0 then Some 4 else None in
  List.iter
    (fun policy ->
      List.iter
        (fun (mode_name, memory_mode) ->
          List.iter
            (fun (spill_name, spill_bytes_of) ->
              let sim prog =
                Pipeline.simulate ~memory_mode ?spill_bytes_of ~policy prog
              in
              let first = sim p in
              let longer = sim q in
              Alcotest.(check bool) "q runs longer than p" true
                (longer.Pipeline.cycles > 2 * first.Pipeline.cycles);
              check_same_stats
                (String.concat "/" [ Policy.name policy; mode_name; spill_name ])
                first (sim p))
            [ ("no-spill", None); ("spill", Some spill) ])
        [ ("tagged", Pipeline.Tagged); ("sign-extend", Pipeline.Sign_extend) ])
    Policy.all

let test_concurrent_domains () =
  let p = narrowed reuse_p and q = narrowed reuse_q in
  let sim prog = Pipeline.simulate ~policy:Policy.Sw_plus_significance prog in
  let seq_p = sim p and seq_q = sim q in
  let repeat prog () = List.init 3 (fun _ -> sim prog) in
  let dp = Domain.spawn (repeat p) and dq = Domain.spawn (repeat q) in
  let par_p = Domain.join dp and par_q = Domain.join dq in
  List.iter (check_same_stats "p in a domain" seq_p) par_p;
  List.iter (check_same_stats "q in a domain" seq_q) par_q

(* Iids index the model's decode table; hand-written assembly may
   number instructions from anywhere.  A loop numbered from [first]
   must simulate like any other: every committed instruction counted,
   the same checksum. *)
let counted_loop ~first =
  let open Ogc_isa in
  let open Ogc_ir in
  let counter = ref (first - 1) in
  let fresh_iid () = incr counter; !counter in
  let r = Reg.of_int in
  let b = Builder.create ~fresh_iid ~fname:"main" ~arity:0 in
  let entry = Builder.new_block b in
  let loop = Builder.new_block b in
  let exit = Builder.new_block b in
  let ins i = ignore (Builder.ins b i) in
  Builder.switch_to b entry;
  ins (Instr.Li { dst = r 1; imm = 100L });
  Builder.terminate b (Prog.Jump loop);
  Builder.switch_to b loop;
  ins (Instr.Alu { op = Instr.Sub; width = Width.W64; src1 = r 1;
                   src2 = Instr.Imm 1L; dst = r 1 });
  ins (Instr.Emit { src = r 1 });
  Builder.terminate b
    (Prog.Branch { cond = Instr.Ne; src = r 1; if_true = loop; if_false = exit });
  Builder.switch_to b exit;
  Builder.terminate b Prog.Return;
  Prog.create [ Builder.finish b ~frame_size:0 ]

let test_any_iids () =
  let dense = Pipeline.simulate ~policy:Policy.No_gating (counted_loop ~first:0) in
  List.iter
    (fun first ->
      let s = Pipeline.simulate ~policy:Policy.No_gating (counted_loop ~first) in
      let what = Printf.sprintf "iids from %d" first in
      Alcotest.(check int) (what ^ ": instructions") dense.Pipeline.instructions
        s.Pipeline.instructions;
      Alcotest.(check int64) (what ^ ": checksum") dense.Pipeline.checksum
        s.Pipeline.checksum)
    [ -1000; 1 lsl 40 ]

let test_no_per_run_allocation () =
  let p = Minic.compile reuse_p in
  let sim () = ignore (Pipeline.simulate ~policy:Policy.No_gating p) in
  sim ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  for _ = 1 to 20 do
    sim ()
  done;
  let added = (Gc.quick_stat ()).Gc.major_words -. before in
  Printf.printf "20 runs added %.0f major-heap words\n" added;
  Alcotest.(check bool)
    (Printf.sprintf "20 runs add %.0f major-heap words (< 1M)" added)
    true (added < 1e6)

let () =
  Alcotest.run "cpu"
    [
      ( "bpred",
        [
          Alcotest.test_case "bimodal learns" `Quick test_bimodal_learns;
          Alcotest.test_case "bimodal aliases" `Quick test_bimodal_aliasing;
          Alcotest.test_case "gshare pattern" `Quick test_gshare_learns_pattern;
          Alcotest.test_case "combined" `Quick test_combined_beats_components;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit/miss" `Quick test_cache_hit_miss;
          Alcotest.test_case "lru" `Quick test_cache_lru;
          Alcotest.test_case "capacity" `Quick test_cache_capacity;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "basics" `Quick test_pipeline_basics;
          Alcotest.test_case "dependences matter" `Quick
            test_pipeline_serial_vs_parallel;
          Alcotest.test_case "cache pressure" `Quick test_pipeline_cache_pressure;
          Alcotest.test_case "mispredict cost" `Quick test_pipeline_mispredict_cost;
          Alcotest.test_case "policy energy order" `Quick
            test_policy_energy_ordering;
          Alcotest.test_case "timing policy-independent" `Quick
            test_timing_independent_of_policy;
          Alcotest.test_case "window pressure" `Quick test_window_pressure;
          Alcotest.test_case "store-load dependence" `Quick
            test_store_load_dependence;
          Alcotest.test_case "btb warmup" `Quick test_btb_warmup;
          Alcotest.test_case "mul/div contention" `Quick test_muldiv_contention;
          Alcotest.test_case "memory modes (§2.4)" `Quick test_memory_modes;
          Alcotest.test_case "machine variants" `Quick test_machine_variants;
          Alcotest.test_case "machine config" `Quick test_machine_config_rows;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "later run equals first run" `Quick
            test_reuse_is_exact;
          Alcotest.test_case "concurrent domains equal sequential runs" `Quick
            test_concurrent_domains;
          Alcotest.test_case "no per-run major allocation" `Quick
            test_no_per_run_allocation;
          Alcotest.test_case "negative and huge iids" `Quick test_any_iids;
        ] );
    ]
