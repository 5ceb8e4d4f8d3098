(* Harness tests: rendering helpers and a single-workload quick collection
   exercising every experiment renderer end-to-end. *)

module Render = Ogc_harness.Render
module Results = Ogc_harness.Results
module Experiments = Ogc_harness.Experiments

let test_render_table () =
  let t =
    Render.table ~header:[ "Name"; "Value" ]
      [ [ "alpha"; "1" ]; [ "b"; "22222" ] ]
  in
  let lines = String.split_on_char '\n' t in
  (* header + rule + 2 rows + trailing newline -> 5 split fields *)
  Alcotest.(check int) "five split fields" 5 (List.length lines);
  Alcotest.(check bool) "header padded" true
    (String.length (List.nth lines 0) = String.length (List.nth lines 1));
  Alcotest.(check bool) "numeric right-aligned" true
    (let row = List.nth lines 3 in
     String.length row > 0 && row.[String.length row - 1] = '2')

let test_render_pct_bar () =
  Alcotest.(check string) "pct" "12.3%" (Render.pct 0.1234);
  Alcotest.(check string) "negative pct" "-5.0%" (Render.pct (-0.05));
  Alcotest.(check string) "bar half" "#####" (Render.bar 0.5 ~scale:1.0 ~width:10);
  Alcotest.(check string) "bar clamped" "##########"
    (Render.bar 2.0 ~scale:1.0 ~width:10);
  Alcotest.(check string) "bar empty" "" (Render.bar (-1.0) ~scale:1.0 ~width:10);
  Alcotest.(check bool) "heading underlined" true
    (String.length (Render.heading "Hi") > 3)

let test_experiment_registry () =
  Alcotest.(check int) "3 tables + 14 figures" 17
    (List.length Experiments.all);
  Alcotest.(check string) "first" "table1" (List.hd Experiments.all).Experiments.id;
  Alcotest.(check string) "last" "fig15"
    (List.nth Experiments.all 16).Experiments.id;
  Alcotest.(check bool) "find" true
    (String.equal (Experiments.find "fig12").Experiments.id "fig12")

let test_vrs_cost_labels () =
  Alcotest.(check (list int)) "paper sweep" [ 110; 90; 70; 50; 30 ]
    Results.vrs_costs;
  Alcotest.(check bool) "costs decrease with labels" true
    (Results.test_cost_of_label 30 < Results.test_cost_of_label 110)

(* One workload, quick mode: end-to-end through every renderer. *)
let test_quick_collection () =
  let res = Results.collect ~quick:true ~only:[ "m88ksim" ] () in
  Alcotest.(check int) "one workload" 1 (List.length res.Results.workloads);
  let w = List.hd res.Results.workloads in
  (* Gating never changes timing. *)
  Alcotest.(check int) "hw gating keeps cycles"
    w.Results.base_none.Ogc_cpu.Pipeline.cycles
    w.Results.base_hwsig.Ogc_cpu.Pipeline.cycles;
  (* Energy orderings that must always hold. *)
  let e (s : Ogc_cpu.Pipeline.stats) = Results.total_energy s in
  Alcotest.(check bool) "VRP saves energy" true (e w.Results.vrp_sw < e w.Results.base_none);
  Alcotest.(check bool) "hw saves energy" true
    (e w.Results.base_hwsig < e w.Results.base_none);
  Alcotest.(check bool) "cooperative beats software alone" true
    (e w.Results.vrp_sig < e w.Results.vrp_sw);
  (* Width distributions are distributions. *)
  let dist = Ogc_cpu.Pipeline.width_distribution w.Results.vrp_sw in
  let total = List.fold_left (fun a (_, f) -> a +. f) 0.0 dist in
  Alcotest.(check bool) "sums to 1" true (abs_float (total -. 1.0) < 1e-6);
  (* Every renderer produces non-empty output containing its own rows. *)
  List.iter
    (fun (exp : Experiments.experiment) ->
      let out = exp.Experiments.render res in
      Alcotest.(check bool) (exp.Experiments.id ^ " renders") true
        (String.length out > 40))
    Experiments.all;
  (* Headline numbers are in plausible bands. *)
  let h = Experiments.headline res in
  Alcotest.(check bool) "vrp energy in (0, 0.5)" true
    (h.Experiments.vrp_energy > 0.0 && h.Experiments.vrp_energy < 0.5);
  Alcotest.(check bool) "cooperative beats vrp alone" true
    (h.Experiments.combined_ed2 > h.Experiments.vrp_ed2);
  Alcotest.(check bool) "headline renders" true
    (String.length (Experiments.render_headline h) > 100)

let () =
  Alcotest.run "harness"
    [
      ( "render",
        [
          Alcotest.test_case "table" `Quick test_render_table;
          Alcotest.test_case "pct/bar" `Quick test_render_pct_bar;
          Alcotest.test_case "registry" `Quick test_experiment_registry;
          Alcotest.test_case "cost labels" `Quick test_vrs_cost_labels;
        ] );
      ( "collection",
        [ Alcotest.test_case "quick single workload" `Slow test_quick_collection ]
      );
    ]
