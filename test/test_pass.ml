(* The typed pass manager: chain parsing, content addressing, the
   artifact store, and the central economy claim — a VRS cost sweep
   against one store computes the guard-cost-independent analysis front
   (VRP fixpoint, training basic-block profile, TNV value profiles)
   exactly once, with byte-identical programs out. *)

module Pass = Ogc_pass.Pass
module Prog = Ogc_ir.Prog
module Prog_json = Ogc_ir.Prog_json
module Vrs = Ogc_core.Vrs
module Vrp = Ogc_core.Vrp
module Cleanup = Ogc_core.Cleanup
module Workload = Ogc_workloads.Workload
module Metrics = Ogc_obs.Metrics
module J = Ogc_json.Json

let sweep = [ 110; 90; 70; 50; 30 ]

let pristine =
  lazy
    (match Workload.find "m88ksim" with
    | w -> Workload.compile w Workload.Train
    | exception Not_found -> Alcotest.fail "m88ksim workload missing")

let prog_bytes p = J.to_string ~indent:false (Prog_json.to_json p)

let sweep_chain cost =
  Printf.sprintf
    "cleanup,vrp,encode-widths,bb-profile,value-profile,vrs:cost=%d,cleanup"
    cost

(* Metrics series are registered once by the pass library; read them
   back through the registry snapshot. *)
let series name pass =
  List.fold_left
    (fun acc (n, labels, v) ->
      if String.equal n name && List.mem ("pass", pass) labels then
        let x =
          match v with
          | J.Float f -> f
          | J.Int i -> float_of_int i
          | _ -> 0.0
        in
        acc +. x
      else acc)
    0.0 (Metrics.snapshot ())

let runs_of = series "ogc_pass_runs_total"
let hits_of = series "ogc_pass_cache_hits_total"

let check_counter what expected got =
  Alcotest.(check int) what expected (int_of_float got)

(* --- the headline test: the sweep shares its analysis front --------------- *)

let test_sweep_shares_front () =
  Metrics.reset ();
  Metrics.set_enabled true;
  Fun.protect ~finally:(fun () -> Metrics.set_enabled false) @@ fun () ->
  let store = Pass.Store.create () in
  let warm =
    List.map
      (fun cost ->
        let st, steps =
          Pass.run ~store (sweep_chain cost) (Prog.copy (Lazy.force pristine))
        in
        (cost, st, steps))
      sweep
  in
  (* The guard-cost-independent front ran once; only vrs and the final
     cleanup ran per cost point. *)
  check_counter "vrp runs" 1 (runs_of "vrp");
  check_counter "encode-widths runs" 1 (runs_of "encode-widths");
  check_counter "bb-profile runs" 1 (runs_of "bb-profile");
  check_counter "value-profile runs" 1 (runs_of "value-profile");
  check_counter "vrs runs" 5 (runs_of "vrs");
  (* cleanup: once as the shared prefix, once per cost as the tail. *)
  check_counter "cleanup runs" 6 (runs_of "cleanup");
  List.iter
    (fun pass ->
      check_counter (pass ^ " cache hits") 4 (hits_of pass))
    [ "cleanup"; "vrp"; "encode-widths"; "bb-profile"; "value-profile" ];
  check_counter "vrs cache hits" 0 (hits_of "vrs");
  (* The store's own accounting agrees. *)
  List.iter
    (fun (name, hits, misses) ->
      match name with
      | "vrp" | "encode-widths" | "bb-profile" | "value-profile" ->
        Alcotest.(check (pair int int))
          (name ^ " store stats") (4, 1) (hits, misses)
      | "vrs" -> Alcotest.(check int) "vrs store misses" 5 misses
      | "cleanup" ->
        Alcotest.(check (pair int int)) "cleanup store stats" (4, 6)
          (hits, misses)
      | _ -> ())
    (Pass.Store.pass_stats store);
  (* Byte identity: each warm-store program equals a cold, storeless
     run of the same chain. *)
  List.iter
    (fun (cost, st, _) ->
      let cold, _ =
        Pass.run (sweep_chain cost) (Prog.copy (Lazy.force pristine))
      in
      Alcotest.(check string)
        (Printf.sprintf "cost %d: warm = cold" cost)
        (prog_bytes cold.Pass.prog) (prog_bytes st.Pass.prog))
    warm

(* --- chains are byte-for-byte the hand-written pipelines ------------------ *)

let test_chain_equals_direct_vrs () =
  let chain_st, _ =
    Pass.run (sweep_chain 50) (Prog.copy (Lazy.force pristine))
  in
  let p = Prog.copy (Lazy.force pristine) in
  ignore (Cleanup.run p);
  let config =
    { Vrs.default_config with test_cost_nj = Vrs.cost_of_label 50 }
  in
  let rep = Vrs.run ~config p in
  ignore (Cleanup.run p);
  Alcotest.(check string) "program identical" (prog_bytes p)
    (prog_bytes chain_st.Pass.prog);
  match chain_st.Pass.report with
  | None -> Alcotest.fail "chain left no VRS report"
  | Some chain_rep ->
    Alcotest.(check int) "same specializations"
      (Vrs.specialized_count rep)
      (Vrs.specialized_count chain_rep)

let test_chain_equals_direct_vrp () =
  let chain_st, _ =
    Pass.run "cleanup,vrp,encode-widths,cleanup"
      (Prog.copy (Lazy.force pristine))
  in
  let p = Prog.copy (Lazy.force pristine) in
  ignore (Cleanup.run p);
  ignore (Vrp.run p);
  ignore (Cleanup.run p);
  Alcotest.(check string) "program identical" (prog_bytes p)
    (prog_bytes chain_st.Pass.prog)

(* --- store behaviour ------------------------------------------------------ *)

let test_rerun_fully_cached () =
  let store = Pass.Store.create () in
  let chain = "cleanup,vrp,encode-widths" in
  let st1, steps1 = Pass.run ~store chain (Prog.copy (Lazy.force pristine)) in
  Alcotest.(check bool) "first run computes" true
    (List.for_all (fun s -> not s.Pass.t_cached) steps1);
  let st2, steps2 = Pass.run ~store chain (Prog.copy (Lazy.force pristine)) in
  Alcotest.(check bool) "second run fully cached" true
    (List.for_all (fun s -> s.Pass.t_cached) steps2);
  Alcotest.(check string) "identical programs" (prog_bytes st1.Pass.prog)
    (prog_bytes st2.Pass.prog)

let test_store_lru () =
  let store = Pass.Store.create ~capacity:2 () in
  let p = Prog.copy (Lazy.force pristine) in
  (* Three distinct artifacts through a capacity-2 store. *)
  ignore (Pass.run ~store "cleanup,vrp,encode-widths" (Prog.copy p));
  Alcotest.(check int) "bounded" 2 (Pass.Store.entries store)

let test_config_changes_key () =
  let d = Pass.parse_spec "vrp" in
  let c = Pass.parse_spec "vrp:variant=conventional" in
  let k0 = Pass.digest_prog (Lazy.force pristine) in
  Alcotest.(check bool) "different configs, different keys" false
    (String.equal (Pass.chain_key d k0) (Pass.chain_key c k0));
  Alcotest.(check bool) "same spec, same key" true
    (String.equal (Pass.chain_key d k0)
       (Pass.chain_key (Pass.parse_spec "vrp:variant=default") k0))

(* --- spec parsing --------------------------------------------------------- *)

let test_parse_canonical () =
  let i = Pass.parse_spec "vrs:cost=70" in
  Alcotest.(check string) "defaults filled, fixed order"
    {|{"cost":70,"constprop":true}|} (Pass.config_string i);
  let j = Pass.parse_spec "vrs:constprop=false:cost=70" in
  Alcotest.(check string) "override order irrelevant"
    {|{"cost":70,"constprop":false}|} (Pass.config_string j)

let test_parse_errors () =
  let fails what s =
    match Pass.parse_chain s with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail (what ^ ": expected Failure")
  in
  fails "unknown pass" "cleanup,frobnicate";
  fails "unknown option" "vrs:costt=50";
  fails "ill-typed value" "vrs:cost=cheap";
  fails "option on optionless pass" "cleanup:x=1";
  fails "missing value" "vrs:cost";
  fails "empty chain" "";
  Alcotest.(check int) "blanks skipped" 2
    (List.length (Pass.parse_chain "cleanup,,vrp,"))

let test_registry () =
  Alcotest.(check (list string)) "registry order"
    [ "cleanup"; "vrp"; "encode-widths"; "bb-profile"; "value-profile";
      "vrs"; "zspec"; "constprop" ]
    (List.map (fun (p : Pass.t) -> p.Pass.name) Pass.registry);
  Alcotest.(check bool) "find" true (Pass.find "vrs" <> None);
  Alcotest.(check bool) "find unknown" true (Pass.find "nope" = None);
  Alcotest.(check (list string)) "profile-dependent passes"
    [ "bb-profile"; "value-profile"; "vrs"; "zspec" ]
    (List.filter Pass.profile_dependent
       (List.map (fun (p : Pass.t) -> p.Pass.name) Pass.registry))

(* --- epoch economy: a fresher profile re-runs only the dependent suffix --- *)

module Profile = Ogc_pass.Profile
module Minic = Ogc_minic.Minic

let epoch_src extra =
  Printf.sprintf
    {|long g = 5;
long h1(int x) {
  long t = 0;
  for (int i = 0; i < x; i++) { t = t + i * 3; }
  return t + g;
}
long h2(int x) { return x * x + 7; }
int main() {
  long acc = 0;
  for (int i = 0; i < 10; i++) { acc = acc + h1(i & 7) + h2(i & 7); }
  emit(acc);
%s  return 0;
}
|}
    extra

(* A genuine wire profile for [p], stamped with [epoch]. *)
let mk_wire ~epoch p =
  let prof = Profile.collect p in
  prof.Profile.p_epoch <- epoch;
  prof

let epoch_chain = "vrp,encode-widths,bb-profile,value-profile,vrs:cost=50"

let test_epoch_reruns_dependent_suffix () =
  let p = Minic.compile (epoch_src "") in
  let store = Pass.Store.create () in
  let wire = mk_wire ~epoch:1 p in
  let _, steps1 = Pass.run ~store ~wire epoch_chain (Prog.copy p) in
  Alcotest.(check bool) "first run computes everything" true
    (List.for_all (fun s -> not s.Pass.t_cached) steps1);
  let _, steps2 = Pass.run ~store ~wire epoch_chain (Prog.copy p) in
  Alcotest.(check bool) "same epoch is fully cached" true
    (List.for_all (fun s -> s.Pass.t_cached) steps2);
  (* Fresher profile, same program: the guard-cost-independent front
     keeps its epoch-free addresses and hits; every profile-dependent
     pass is re-addressed and re-runs. *)
  wire.Profile.p_epoch <- 2;
  let st3, steps3 = Pass.run ~store ~wire epoch_chain (Prog.copy p) in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Pass.t_pass ^ " cached iff profile-independent")
        (not (Pass.profile_dependent s.Pass.t_pass))
        s.Pass.t_cached)
    steps3;
  List.iter
    (fun (name, hits, misses) ->
      match name with
      | "vrp" | "encode-widths" ->
        Alcotest.(check (pair int int))
          (name ^ " store stats") (2, 1) (hits, misses)
      | "bb-profile" | "value-profile" | "vrs" ->
        Alcotest.(check (pair int int))
          (name ^ " store stats") (1, 2) (hits, misses)
      | _ -> ())
    (Pass.Store.pass_stats store);
  (* The stale-front reuse changed no bytes: a storeless run at the new
     epoch produces the identical program. *)
  let cold, _ = Pass.run ~wire epoch_chain (Prog.copy p) in
  Alcotest.(check string) "warm epoch bump = cold" (prog_bytes cold.Pass.prog)
    (prog_bytes st3.Pass.prog)

(* --- one store shared across programs --------------------------------- *)

module Gen_minic = Ogc_fuzz.Gen_minic

(* The first [per_family] programs of each generator family, drawn from
   fixed generator states as test_usedef's cloned-code case draws them:
   cloning has no bound on code growth, so only a fixed sample has a
   bound on run time. *)
let per_family = 8

let store_sample =
  lazy
    (List.concat
       (List.mapi
          (fun k (fam, gen) ->
            List.filter_map
              (fun i ->
                let src = gen (Random.State.make [| 42; k; i |]) in
                match Minic.compile src with
                | p -> Some (Printf.sprintf "%s program %d" fam i, p)
                | exception Minic.Error _ -> None)
              (List.init per_family Fun.id))
          [ ("plain", Gen_minic.program);
            ("pressure", Gen_minic.pressure_program);
            ("zero", Gen_minic.zero_program) ]))

(* Everything a VRS report holds but its final VRP fact, which the
   output program's widths already show; iid sets in order. *)
let report_view (st : Pass.state) =
  let iids tbl =
    List.sort Int.compare (Hashtbl.fold (fun iid () acc -> iid :: acc) tbl [])
  in
  Option.map
    (fun r ->
      ( r.Vrs.profiled,
        (r.Vrs.static_cloned, r.Vrs.static_eliminated),
        (iids r.Vrs.guard_iids, iids r.Vrs.guard_branch_iids,
         iids r.Vrs.clone_iids),
        r.Vrs.clone_blocks,
        r.Vrs.assumptions ))
    st.Pass.report

(* An eight-snapshot store shared by the whole sample.  Each program
   runs two VRS chains back to back: the server's, without a wire
   profile, then with an epoch-1 wire profile and a zspec tail (a chain
   that transforms the program before a profile-dependent pass).  The
   second run restores the first run's epoch-free [vrp] and
   [encode-widths] snapshots and re-runs the epoch-salted rest, and
   every program's snapshots evict the previous program's.  Every output
   equals a storeless run's.  (Below one chain's length of snapshots a
   store never hits: each run's [vrp] snapshot is evicted before the
   next lookup of it.) *)
let test_store_shared_across_programs () =
  let store = Pass.Store.create ~capacity:8 () in
  let sample = Lazy.force store_sample in
  let check ?wire chain name p =
    let warm, _ = Pass.run ~store ?wire chain (Prog.copy p) in
    let cold, _ = Pass.run ?wire chain (Prog.copy p) in
    Alcotest.(check string) (name ^ ": program") (prog_bytes cold.Pass.prog)
      (prog_bytes warm.Pass.prog);
    Alcotest.(check bool) (name ^ ": VRS report") true
      (report_view cold = report_view warm)
  in
  List.iter
    (fun (name, p) ->
      check epoch_chain name p;
      check ~wire:(mk_wire ~epoch:1 p) (epoch_chain ^ ",zspec:cost=50")
        (name ^ " with a wire profile") p)
    sample;
  let n = List.length sample in
  List.iter
    (fun (name, hits, misses) ->
      let expected =
        match name with
        | "vrp" | "encode-widths" -> (n, n)
        | "zspec" -> (0, n)
        | _ -> (0, 2 * n)
      in
      Alcotest.(check (pair int int)) (name ^ " store stats") expected
        (hits, misses))
    (Pass.Store.pass_stats store);
  Alcotest.(check int) "evictions" ((9 * n) - 8) (Pass.Store.evictions store)

let () =
  Alcotest.run "pass"
    [
      ( "economy",
        [
          Alcotest.test_case "cost sweep shares the analysis front" `Slow
            test_sweep_shares_front;
          Alcotest.test_case "epoch bump re-runs only the dependent suffix"
            `Quick test_epoch_reruns_dependent_suffix;
        ] );
      ( "identity",
        [
          Alcotest.test_case "chain = hand-written VRS pipeline" `Slow
            test_chain_equals_direct_vrs;
          Alcotest.test_case "chain = hand-written VRP pipeline" `Quick
            test_chain_equals_direct_vrp;
        ] );
      ( "store",
        [
          Alcotest.test_case "rerun is fully cached" `Quick
            test_rerun_fully_cached;
          Alcotest.test_case "LRU bound" `Quick test_store_lru;
          Alcotest.test_case "one store shared across programs" `Slow
            test_store_shared_across_programs;
          Alcotest.test_case "config participates in the key" `Quick
            test_config_changes_key;
        ] );
      ( "specs",
        [
          Alcotest.test_case "canonical configs" `Quick test_parse_canonical;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "registry" `Quick test_registry;
        ] );
    ]
