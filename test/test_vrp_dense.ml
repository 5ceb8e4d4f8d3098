(* Dense fixpoint engine vs the retained naive reference.

   The dense worklist engine is sweep-equivalent by construction: its
   round barrier makes it visit exactly the blocks a full
   reverse-postorder sweep would find changed, and its per-block states
   carry only the block-crossing registers while the naive engine
   carries every register.  So every externally observable analysis
   fact — per-instruction ranges and input ranges, useful widths,
   assigned widths, per-function return summaries, and the re-encoded
   program itself — must be byte-identical to the naive engine's, on any
   program, at any [--jobs].  These properties pin that contract down on
   generated MiniC from all three generator families (allocated, and
   pre-allocation, where most registers are block-local virtual
   temporaries) and on raw IR, each under random block-entry assumptions
   or none; they check that the ranges-only entry point agrees with the
   full analysis, and the SCC-ordering fact the priority worklist relies
   on. *)

open Ogc_isa
module Label = Ogc_ir.Label
module Prog = Ogc_ir.Prog
module Cfg = Ogc_ir.Cfg
module Scc = Ogc_ir.Scc
module Asm = Ogc_ir.Asm
module Interp = Ogc_ir.Interp
module Minic = Ogc_minic.Minic
module Vrp = Ogc_core.Vrp
module Interval = Ogc_core.Interval
module Gen_minic = Ogc_fuzz.Gen_minic
module Gen_ir = Ogc_fuzz.Gen_ir

let interp_cfg = { Interp.default_config with max_steps = 2_000_000 }

let max_iid p =
  let m = ref 0 in
  Prog.iter_all_ins p (fun _ _ ins ->
      if ins.Prog.iid > !m then m := ins.Prog.iid);
  !m

let str_of_range = function
  | None -> "-"
  | Some rng -> Interval.to_string rng

let str_of_width = function None -> "-" | Some w -> Width.to_string w

let str_of_inputs = function
  | None -> "-"
  | Some (a, b) -> Interval.to_string a ^ "," ^ Interval.to_string b

(* Every range fact of [ra] and [rb] must agree on [p]: per-instruction
   ranges and input ranges, and per-function return ranges; [what] names
   the two analyses in the failure message. *)
let same_ranges ~what p ra rb =
  for iid = 0 to max_iid p do
    let a = str_of_range (Vrp.range_of ra iid)
    and b = str_of_range (Vrp.range_of rb iid) in
    if a <> b then
      QCheck.Test.fail_reportf "%s: range of iid %d: %s vs %s" what iid a b;
    let a = str_of_inputs (Vrp.input_ranges_of ra iid)
    and b = str_of_inputs (Vrp.input_ranges_of rb iid) in
    if a <> b then
      QCheck.Test.fail_reportf "%s: input ranges of iid %d: %s vs %s" what iid
        a b
  done;
  List.iter
    (fun (f : Prog.func) ->
      let a = str_of_range (Vrp.return_range ra f.fname)
      and b = str_of_range (Vrp.return_range rb f.fname) in
      if a <> b then
        QCheck.Test.fail_reportf "%s: return range of %s: %s vs %s" what
          f.fname a b)
    p.Prog.funcs;
  true

(* Every width fact too: useful and assigned widths. *)
let same_widths ~what p ra rb =
  for iid = 0 to max_iid p do
    let a = str_of_width (Vrp.useful_width_of ra iid)
    and b = str_of_width (Vrp.useful_width_of rb iid) in
    if a <> b then
      QCheck.Test.fail_reportf "%s: useful width of iid %d: %s vs %s" what iid
        a b;
    let a = str_of_width (Vrp.width_of ra iid)
    and b = str_of_width (Vrp.width_of rb iid) in
    if a <> b then
      QCheck.Test.fail_reportf "%s: width of iid %d: %s vs %s" what iid a b
  done;
  true

let same_results ~what p ra rb =
  same_ranges ~what p ra rb && same_widths ~what p ra rb

(* Dense and naive must also re-encode identically and preserve output. *)
let same_reencoding p =
  let pd = Prog.copy p and pn = Prog.copy p in
  let rd = Vrp.analyze ~engine:Vrp.Dense pd in
  let rn = Vrp.analyze ~engine:Vrp.Naive pn in
  Vrp.apply rd pd;
  Vrp.apply rn pn;
  let ad = Asm.to_string pd and an = Asm.to_string pn in
  if ad <> an then
    QCheck.Test.fail_reportf "re-encoded programs differ:\n%s\n----\n%s" ad an;
  let cd = (Interp.run ~config:interp_cfg pd).Interp.checksum in
  let cn = (Interp.run ~config:interp_cfg pn).Interp.checksum in
  if not (Int64.equal cd cn) then
    QCheck.Test.fail_reportf "re-encoded checksums differ: %Ld vs %Ld" cd cn;
  true

let reg_of_index i =
  if i < Reg.num_arch then Reg.of_int i else Reg.vreg (i - Reg.num_arch)

(* Block-entry assumptions on arbitrary registers of each function, or
   none (a third of the draws): any register index up to the function's
   highest (carried or block-local alike), or one the function defines —
   in pre-allocation code mostly a block-local temporary, whose assumed
   range is never observed. *)
let gen_assumptions (p : Prog.t) =
  let open QCheck.Gen in
  let per_func (f : Prog.func) =
    let defs = ref [] in
    Prog.iter_ins f (fun _ ins -> defs := Instr.defs ins.Prog.op @ !defs);
    let reg =
      if !defs = [] then map reg_of_index (int_bound (Prog.max_reg_of_func f))
      else
        oneof
          [ map reg_of_index (int_bound (Prog.max_reg_of_func f));
            oneofl !defs ]
    in
    list_size (int_range 0 6)
      (let* bi = int_bound (Array.length f.Prog.blocks - 1) in
       let* areg = reg in
       let* lo = int_range (-300) 300 in
       let* len = int_bound 600 in
       return
         { Vrp.af = f.Prog.fname; alabel = Label.of_int bi; areg;
           arange = Interval.v (Int64.of_int lo) (Int64.of_int (lo + len)) })
  in
  frequency
    [ (1, return []);
      (2, map List.concat (flatten_l (List.map per_func p.Prog.funcs))) ]

(* Dense == naive on [p] under the assumptions drawn from [seed]. *)
let dense_eq_naive ~what p seed =
  let assumptions = gen_assumptions p (Random.State.make [| seed |]) in
  let config = { Vrp.default_config with assumptions } in
  let rd = Vrp.analyze ~config ~engine:Vrp.Dense p in
  let rn = Vrp.analyze ~config ~engine:Vrp.Naive p in
  let what =
    Printf.sprintf "%s, %d assumptions" what (List.length assumptions)
  in
  same_results ~what p rd rn && same_reencoding p

(* One generator per [Gen_minic] family, tagged with its name. *)
let arbitrary_family_program =
  let families =
    [ ("plain", Gen_minic.program); ("pressure", Gen_minic.pressure_program);
      ("zero", Gen_minic.zero_program) ]
  in
  QCheck.make
    ~print:(fun (fam, src) -> fam ^ " program:\n" ^ src)
    QCheck.Gen.(
      oneofl families >>= fun (fam, g) -> map (fun src -> (fam, src)) g)

let prop_dense_eq_naive_minic =
  QCheck.Test.make ~name:"dense == naive on generated MiniC" ~count:60
    QCheck.(pair arbitrary_family_program int)
    (fun ((fam, src), seed) ->
      dense_eq_naive ~what:("dense vs naive (" ^ fam ^ ")") (Minic.compile src)
        seed)

let prop_dense_eq_naive_ir =
  QCheck.Test.make ~name:"dense == naive on generated raw IR" ~count:60
    QCheck.(pair Gen_ir.arbitrary_program int)
    (fun (p, seed) -> dense_eq_naive ~what:"dense vs naive (ir)" p seed)

let prop_dense_eq_naive_prealloc =
  QCheck.Test.make ~name:"dense == naive on pre-allocation MiniC" ~count:45
    QCheck.(pair arbitrary_family_program int)
    (fun ((fam, src), seed) ->
      dense_eq_naive
        ~what:("dense vs naive (pre-allocation " ^ fam ^ ")")
        (Minic.lower src) seed)

(* The ranges-only entry point runs the same solver without demand and
   width assignment: every range, input range, return range and effort
   counter agrees with the full analysis, and it assigns no widths. *)
let prop_ranges_eq_analyze =
  QCheck.Test.make ~name:"ranges == analyze on every range" ~count:45
    arbitrary_family_program (fun (fam, src) ->
      List.for_all
        (fun (stage, p) ->
          let what = Printf.sprintf "ranges vs analyze (%s %s)" stage fam in
          let ra = Vrp.analyze p and rr = Vrp.ranges p in
          same_ranges ~what p ra rr
          && (Vrp.fixpoint_stats ra = Vrp.fixpoint_stats rr
             || QCheck.Test.fail_reportf "%s: fixpoint effort differs" what)
          && List.for_all
               (fun iid -> Vrp.width_of rr iid = None)
               (List.init (max_iid p + 1) Fun.id))
        [ ("pre-allocation", Minic.lower src);
          ("allocated", Minic.compile src) ])

let prop_jobs_identical =
  QCheck.Test.make ~name:"dense identical at --jobs 1/2/8" ~count:30
    Gen_minic.arbitrary_program (fun src ->
      let p = Minic.compile src in
      let r1 = Vrp.analyze ~engine:Vrp.Dense ~jobs:1 p in
      let r2 = Vrp.analyze ~engine:Vrp.Dense ~jobs:2 p in
      let r8 = Vrp.analyze ~engine:Vrp.Dense ~jobs:8 p in
      same_results ~what:"jobs 1 vs 2" p r1 r2
      && same_results ~what:"jobs 1 vs 8" p r1 r8)

(* Reverse postorder is a topological order of the SCC condensation:
   cross-component CFG edges always step to a strictly later component. *)
let prop_scc_topological =
  QCheck.Test.make ~name:"SCC ids topological over CFG edges" ~count:60
    Gen_ir.arbitrary_program (fun p ->
      List.iter
        (fun (f : Prog.func) ->
          let cfg = Cfg.of_func f in
          let scc = Scc.of_cfg cfg in
          for bi = 0 to Array.length f.blocks - 1 do
            let l = Label.of_int bi in
            if Cfg.is_reachable cfg l then
              List.iter
                (fun s ->
                  let cu = Scc.comp scc bi
                  and cv = Scc.comp scc (Label.to_int s) in
                  if cu <> cv && cu >= cv then
                    QCheck.Test.fail_reportf
                      "%s: edge b%d -> b%d goes backwards in comp rank \
                       (%d -> %d)"
                      f.fname bi (Label.to_int s) cu cv)
                (Cfg.succs cfg l)
          done)
        p.Prog.funcs;
      true)

(* Hand-built digraph: two 2-cycles bridged by an acyclic spine. *)
let test_scc_basic () =
  let succs = function
    | 0 -> [ 1 ]
    | 1 -> [ 2; 0 ] (* {0,1} cycle *)
    | 2 -> [ 3 ]
    | 3 -> [ 4; 3 ] (* self-loop *)
    | 4 -> [ 5 ]
    | 5 -> [ 4 ] (* {4,5} would cycle, but 5 -> 4 makes it so *)
    | _ -> []
  in
  let t = Scc.compute ~n:6 ~succs in
  Alcotest.(check int) "component count" 4 (Scc.count t);
  Alcotest.(check bool) "0 and 1 share" true (Scc.comp t 0 = Scc.comp t 1);
  Alcotest.(check bool) "4 and 5 share" true (Scc.comp t 4 = Scc.comp t 5);
  Alcotest.(check bool) "0 in cycle" true (Scc.in_cycle t 0);
  Alcotest.(check bool) "3 self-loop in cycle" true (Scc.in_cycle t 3);
  Alcotest.(check bool) "2 not in cycle" false (Scc.in_cycle t 2);
  Alcotest.(check bool) "has cycle" true (Scc.has_cycle t);
  Alcotest.(check bool) "topological" true
    (Scc.comp t 0 < Scc.comp t 2
    && Scc.comp t 2 < Scc.comp t 3
    && Scc.comp t 3 < Scc.comp t 4);
  let dag = Scc.compute ~n:3 ~succs:(function 0 -> [ 1; 2 ] | 1 -> [ 2 ] | _ -> []) in
  Alcotest.(check bool) "dag has no cycle" false (Scc.has_cycle dag)

let () =
  Alcotest.run "vrp_dense"
    [
      ("scc", [ Alcotest.test_case "basic digraph" `Quick test_scc_basic ]);
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_dense_eq_naive_minic;
            prop_dense_eq_naive_ir;
            prop_dense_eq_naive_prealloc;
            prop_ranges_eq_analyze;
            prop_jobs_identical;
            prop_scc_topological;
          ] );
    ]
