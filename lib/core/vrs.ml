open Ogc_isa
open Ogc_ir
module Metrics = Ogc_obs.Metrics
module Span = Ogc_obs.Span

(* Specialization telemetry: candidate disposition, both back halves. *)
let m_cand_specialized =
  Metrics.counter "ogc_vrs_candidates_total"
    ~labels:[ ("outcome", "specialized") ]

let m_cand_dependent =
  Metrics.counter "ogc_vrs_candidates_total"
    ~labels:[ ("outcome", "dependent_on_other") ]

let m_cand_no_benefit =
  Metrics.counter "ogc_vrs_candidates_total"
    ~labels:[ ("outcome", "no_benefit") ]

type config = {
  test_cost_nj : float;
  constprop : bool;  (* fold/eliminate inside clones (ablation knob) *)
}

(* The default guard cost approximates the full pipeline energy of one
   extra instruction; the harness sweeps it (paper Figure 8's VRS 30-110nJ
   configurations). *)
let default_config = { test_cost_nj = 1.5; constprop = true }

(* Candidate selection: a candidate's block must account for
   [hot_fraction] of the training run's dynamic instructions, at most
   [max_candidates] are profiled, and a range must reach [min_freq] to
   be worth guarding. *)
let hot_fraction = 0.001
let max_candidates = 256
let min_freq = 0.4

type outcome =
  | Specialized of { lo : int64; hi : int64; freq : float; benefit : float }
  | Dependent_on_other
  | No_benefit

type report = {
  profiled : (int * outcome) list;
  guard_iids : (int, unit) Hashtbl.t;
  guard_branch_iids : (int, unit) Hashtbl.t;
  clone_blocks : (string * Label.t) list;
  clone_iids : (int, unit) Hashtbl.t;
  static_cloned : int;
  static_eliminated : int;
  assumptions : Vrp.assumption list;
  final_vrp : Vrp.result;
}

let specialized_count r =
  List.length
    (List.filter (function _, Specialized _ -> true | _ -> false) r.profiled)

let r27 = Reg.of_int 27
let r28 = Reg.of_int 28

let fits_imm v = Int64.compare v (-32768L) >= 0 && Int64.compare v 32767L <= 0

(* --- savings estimation (paper §3.1) -------------------------------------- *)

(* Execution count of the block holding instruction [iid]. *)
let make_inst_count (f : Prog.func) (counts : Interp.bb_counts) =
  let tbl = Hashtbl.create 256 in
  Array.iter
    (fun (b : Prog.block) ->
      let c = Interp.count_of counts f.fname b.label in
      Array.iter (fun (ins : Prog.ins) -> Hashtbl.replace tbl ins.iid c) b.body;
      Hashtbl.replace tbl b.term_iid c)
    f.blocks;
  fun iid -> Option.value ~default:0 (Hashtbl.find_opt tbl iid)

(* Energy recovered when constant propagation folds one dependent
   instruction away entirely (Li replacement + dead-code elimination),
   beyond mere width narrowing.  Roughly the non-fixed share of one
   instruction's pipeline energy. *)
let fold_gain_nj = 1.2

(* [Savings(I, r, min, max)]: total energy saved over the (training) run if
   the output of [iid] narrowed to [new_width], following the def-use graph
   through dependent instructions as in the paper's recursive formula.
   When the specialized range is a single value ([single]), dependents
   whose only register inputs carry that value fold to constants
   (§3.4's value-specialization-plus-constant-propagation), which saves
   their whole execution rather than just datapath width.  The realized
   narrowing is later decided by re-running VRP; this estimate drives
   candidate filtering and the final cost/benefit test. *)
let estimate_savings ~table ~vrp ~ud ~ins_ops ~inst_count ~iid ~new_width
    ~single =
  let visited = Hashtbl.create 32 in
  let gain = ref 0.0 in
  let current_width use_iid =
    match Vrp.width_of vrp use_iid with Some w -> w | None -> Width.W64
  in
  let other_input_width use_iid =
    match Vrp.input_ranges_of vrp use_iid with
    | Some (a, b) -> Width.min (Interval.width a) (Interval.width b)
    | None -> Width.W64
  in
  (* A use folds to a constant when all the registers it reads hold the
     (constant) specialized value — i.e. every register use is [r]. *)
  let folds use_iid r =
    match Hashtbl.find_opt ins_ops use_iid with
    | Some (Instr.Alu _ | Instr.Cmp _ | Instr.Msk _ | Instr.Sext _ as op) ->
      List.for_all (fun u -> Reg.equal u r) (Instr.uses op)
    | Some _ | None -> false
  in
  let rec propagate def_iid w ~is_const =
    List.iter
      (fun di ->
        List.iter
          (fun (use_iid, r) ->
            if not (Hashtbl.mem visited use_iid) then begin
              Hashtbl.replace visited use_iid ();
              let cur = current_width use_iid in
              if is_const && folds use_iid r then begin
                gain :=
                  !gain +. (float_of_int (inst_count use_iid) *. fold_gain_nj);
                propagate use_iid w ~is_const:true
              end
              else begin
                let w' =
                  Width.min cur (Width.max w (other_input_width use_iid))
                in
                if Width.compare w' cur < 0 then begin
                  gain :=
                    !gain
                    +. float_of_int (inst_count use_iid)
                       *. Savings_table.saving table ~from_:cur ~to_:w';
                  propagate use_iid w' ~is_const:false
                end
              end
            end)
          (Usedef.uses_of_def ud di))
      (Usedef.defs_of_ins ud def_iid)
  in
  (* The candidate itself is re-encoded narrower, too. *)
  let cur = current_width iid in
  let w0 = Width.min cur new_width in
  if Width.compare w0 cur < 0 then
    gain :=
      !gain
      +. float_of_int (inst_count iid)
         *. Savings_table.saving table ~from_:cur ~to_:w0;
  propagate iid w0 ~is_const:single;
  !gain

(* --- candidate selection (paper §3.3) -------------------------------------- *)

type candidate = {
  c_iid : int;
  c_fname : string;
  c_dst : Reg.t;
  c_count : int;
  c_sav : float;  (* best-case savings estimate, guard cost excluded *)
}

let eligible_dst (ins : Prog.ins) =
  match ins.op with
  | Instr.Alu { dst; _ } | Instr.Load { dst; _ } ->
    if Reg.equal dst Reg.sp || Reg.equal dst Reg.zero then None else Some dst
  | Instr.Call _ -> Some Reg.ret
  | Instr.Cmp _ | Instr.Cmov _ | Instr.Msk _ | Instr.Sext _ | Instr.Li _
  | Instr.La _ | Instr.Store _ | Instr.Emit _ -> None

(* The cost-independent master list: every hot, wide definition with a
   positive best-case savings estimate.  The per-configuration guard-cost
   screening and ranking happen in {!select_for}, so one master list (and
   one set of value profiles) serves a whole guard-cost sweep. *)
let master_candidates ~table ~vrp (p : Prog.t) counts ~total_dyn =
  let cands = ref [] in
  List.iter
    (fun (f : Prog.func) ->
      let cfg = Cfg.of_func f in
      let ud = Usedef.compute f cfg in
      let inst_count = make_inst_count f counts in
      let ins_ops = Hashtbl.create 256 in
      Prog.iter_ins f (fun _ ins -> Hashtbl.replace ins_ops ins.iid ins.op);
      Prog.iter_ins f (fun _ ins ->
          match eligible_dst ins with
          | None -> ()
          | Some dst ->
            let count = inst_count ins.iid in
            let hot =
              float_of_int count
              >= hot_fraction *. float_of_int total_dyn
              && count > 0
            in
            let wide =
              match Vrp.width_of vrp ins.iid with
              | Some (Width.W32 | Width.W64) -> true
              | Some (Width.W8 | Width.W16) | None -> (
                (* calls have no width; use the range instead *)
                match Vrp.range_of vrp ins.iid with
                | Some rng -> Width.compare (Interval.width rng) Width.W32 >= 0
                | None -> false)
            in
            if hot && wide then begin
              (* Preliminary filter: best-case narrowing (to a byte) at
                 the cheapest guard (a single comparison). *)
              let sav =
                estimate_savings ~table ~vrp ~ud ~ins_ops ~inst_count
                  ~iid:ins.iid ~new_width:Width.W8 ~single:true
              in
              if sav > 0.0 then
                cands :=
                  {
                    c_iid = ins.iid;
                    c_fname = f.fname;
                    c_dst = dst;
                    c_count = count;
                    c_sav = sav;
                  }
                  :: !cands
            end))
    p.funcs;
  !cands

(* Guard-cost screening at a concrete configuration: drop candidates whose
   best case cannot pay for the cheapest guard, rank by the margin, keep
   the profiling budget.  [List.sort] is stable and the master list keeps
   its construction order, so this yields byte-for-byte the candidate
   order a from-scratch screening at this cost would. *)
let select_for config master =
  let prelim c = c.c_sav -. (float_of_int c.c_count *. config.test_cost_nj) in
  let screened = List.filter (fun c -> prelim c > 0.0) master in
  let sorted =
    List.sort (fun a b -> Float.compare (prelim b) (prelim a)) screened
  in
  List.filteri (fun i _ -> i < max_candidates) sorted

(* --- the transformation (paper §3.4) ---------------------------------------- *)

(* Find the block index and body index of instruction [iid] in [f]. *)
let locate (f : Prog.func) iid =
  let found = ref None in
  Array.iteri
    (fun bi (b : Prog.block) ->
      Array.iteri
        (fun ii (ins : Prog.ins) -> if ins.iid = iid then found := Some (bi, ii))
        b.body)
    f.blocks;
  !found

(* Guard instruction sequence testing [x ∈ [lo,hi]]; returns the body
   instructions (fresh iids recorded as guards) and the branch condition
   source.  [None] as the register means "branch directly on x = 0". *)
let build_guard p report ~x ~lo ~hi =
  let fresh i =
    let iid = Prog.fresh_iid p in
    Hashtbl.replace report.guard_iids iid ();
    { Prog.iid; op = i }
  in
  if Int64.equal lo hi then
    if Int64.equal lo 0L then ([], `Zero_test)
    else if fits_imm lo then
      ( [ fresh (Instr.Cmp { op = Instr.Ceq; width = Width.W64; src1 = x;
                             src2 = Instr.Imm lo; dst = r27 }) ],
        `Test r27 )
    else
      ( [ fresh (Instr.Li { dst = r27; imm = lo });
          fresh (Instr.Cmp { op = Instr.Ceq; width = Width.W64; src1 = x;
                             src2 = Instr.Reg r27; dst = r27 }) ],
        `Test r27 )
  else begin
    let lo_ins =
      if fits_imm lo then
        [ fresh (Instr.Cmp { op = Instr.Clt; width = Width.W64; src1 = x;
                             src2 = Instr.Imm lo; dst = r27 }) ]
      else
        [ fresh (Instr.Li { dst = r27; imm = lo });
          fresh (Instr.Cmp { op = Instr.Clt; width = Width.W64; src1 = x;
                             src2 = Instr.Reg r27; dst = r27 }) ]
    in
    let hi_ins =
      if fits_imm hi then
        [ fresh (Instr.Cmp { op = Instr.Cle; width = Width.W64; src1 = x;
                             src2 = Instr.Imm hi; dst = r28 }) ]
      else
        [ fresh (Instr.Li { dst = r28; imm = hi });
          fresh (Instr.Cmp { op = Instr.Cle; width = Width.W64; src1 = x;
                             src2 = Instr.Reg r28; dst = r28 }) ]
    in
    (* inside = (x <= hi) AND NOT (x < lo) *)
    let combine =
      [ fresh (Instr.Alu { op = Instr.Bic; width = Width.W64; src1 = r28;
                           src2 = Instr.Reg r27; dst = r27 }) ]
    in
    (lo_ins @ hi_ins @ combine, `Test r27)
  end

(* Clone the dependent region and wire the guard.  Returns the assumption
   to install, or [None] when the transformation is not applicable. *)
let specialize_point (p : Prog.t) (f : Prog.func) report ~iid ~x ~lo ~hi =
  match locate f iid with
  | None -> None
  | Some (bi, ii) ->
    let b = f.blocks.(bi) in
    let nbody = Array.length b.body in
    (* 1. Split after the candidate. *)
    let tail_body = Array.sub b.body (ii + 1) (nbody - ii - 1) in
    let tail_label =
      Prog.append_block f ~body:tail_body ~term:b.term ~term_iid:b.term_iid
    in
    let guard_body, test = build_guard p report ~x ~lo ~hi in
    let head =
      {
        Prog.label = b.label;
        body = Array.append (Array.sub b.body 0 (ii + 1)) (Array.of_list guard_body);
        term = Prog.Jump tail_label (* placeholder until the clone exists *);
        term_iid = Prog.fresh_iid p;
      }
    in
    Hashtbl.replace report.guard_branch_iids head.term_iid ();
    f.blocks.(Label.to_int b.label) <- head;
    (* 2. Region: blocks dominated by the tail that contain instructions
       dependent on the candidate, or lead to one inside the dominated
       set. *)
    let cfg = Cfg.of_func f in
    let dom = Dom.compute cfg in
    let ud = Usedef.compute f cfg in
    let deps = Usedef.dependents ud ~iid in
    let dominated =
      Array.to_list f.blocks
      |> List.filter_map (fun (blk : Prog.block) ->
             if Dom.dominates dom tail_label blk.label then Some blk.label
             else None)
    in
    let contains_dep (blk : Prog.block) =
      Hashtbl.mem deps blk.term_iid
      || Array.exists (fun (ins : Prog.ins) -> Hashtbl.mem deps ins.iid) blk.body
    in
    let dep_labels =
      List.filter (fun l -> contains_dep f.blocks.(Label.to_int l)) dominated
    in
    (* Reverse reachability to a dependent block within the dominated set. *)
    let in_dominated l = List.exists (Label.equal l) dominated in
    let region = Hashtbl.create 16 in
    let rec mark l =
      if not (Hashtbl.mem region l) then begin
        Hashtbl.replace region l ();
        List.iter
          (fun pl -> if in_dominated pl then mark pl)
          (Cfg.preds cfg l)
      end
    in
    List.iter mark dep_labels;
    Hashtbl.replace region tail_label ();
    let region_list =
      List.filter (fun l -> Hashtbl.mem region l) dominated
    in
    (* 3. Clone the region. *)
    let mapping = Hashtbl.create 16 in
    List.iter
      (fun l ->
        let orig = f.blocks.(Label.to_int l) in
        let body =
          Array.map
            (fun (ins : Prog.ins) ->
              let niid = Prog.fresh_iid p in
              Hashtbl.replace report.clone_iids niid ();
              { Prog.iid = niid; op = ins.op })
            orig.body
        in
        let nl =
          Prog.append_block f ~body ~term:orig.term
            ~term_iid:(Prog.fresh_iid p)
        in
        Hashtbl.replace mapping (Label.to_int l) nl)
      region_list;
    (* Redirect intra-region edges inside the clones. *)
    let remap l =
      match Hashtbl.find_opt mapping (Label.to_int l) with
      | Some nl -> nl
      | None -> l
    in
    Hashtbl.iter
      (fun _ nl ->
        let blk = f.blocks.(Label.to_int nl) in
        blk.term <-
          (match blk.term with
          | Prog.Jump l -> Prog.Jump (remap l)
          | Prog.Branch br ->
            Prog.Branch
              { br with if_true = remap br.if_true; if_false = remap br.if_false }
          | Prog.Return -> Prog.Return))
      mapping;
    (* 4. Final guard branch. *)
    let clone_entry = Hashtbl.find mapping (Label.to_int tail_label) in
    head.term <-
      (match test with
      | `Zero_test ->
        Prog.Branch
          { cond = Instr.Eq; src = x; if_true = clone_entry; if_false = tail_label }
      | `Test r ->
        Prog.Branch
          { cond = Instr.Ne; src = r; if_true = clone_entry; if_false = tail_label });
    let cloned_static =
      List.fold_left
        (fun acc l -> acc + Array.length f.blocks.(Label.to_int l).body)
        0 region_list
    in
    Some
      ( { Vrp.af = f.fname; alabel = clone_entry; areg = x;
          arange = Interval.v lo hi },
        region_list,
        List.map (fun l -> Hashtbl.find mapping (Label.to_int l)) region_list,
        deps,
        cloned_static )

(* --- driver ------------------------------------------------------------------ *)

let guard_instr_count ~lo ~hi =
  if Int64.equal lo hi then (if Int64.equal lo 0L then 1 else 2) else 4

(* The expensive, guard-cost-independent front half of the pipeline: the
   initial VRP pass, the basic-block-profiling training run, the master
   candidate list, and the value-profiling training run.  One [analysis]
   serves every guard-cost configuration of the same program state
   ({!specialize} below), which is what makes the harness's 5-point cost
   sweep compute VRP and the two interpreter runs once per workload. *)
type analysis = {
  a_vrp : Vrp.result;
  a_counts : Interp.bb_counts;
  a_master : candidate list;
  a_profiles : (int, Tnv.t) Hashtbl.t;
}

let profiled_points a = List.length a.a_master

(* The profiling points, in master-list (decision) order: what a client
   building a wire profile should sample. *)
let candidate_iids a = List.map (fun c -> c.c_iid) a.a_master

(* One guard instruction costs roughly the pipeline energy of an extra
   instruction; the paper's nJ labels (the Figure 8 sweep) scale it. *)
let cost_of_label l = float_of_int l *. 0.03

let analyze_inner ?vrp ?bb ?values (p : Prog.t) =
  let table = Savings_table.default in
  (* Step 0: VRP pass; VRS builds on re-encoded code.  A caller that
     already ran it (the pass manager) hands the result in. *)
  let vrp1 = match vrp with Some r -> r | None -> Vrp.run p in
  (* Step 1: training run for basic-block profiles (shareable too). *)
  let counts, total_dyn =
    match bb with
    | Some (counts, total) -> (counts, total)
    | None ->
      let counts : Interp.bb_counts = Hashtbl.create 64 in
      let train1 =
        Span.with_ ~name:"vrs:train" (fun () ->
            Interp.run ~bb_counts:counts p)
      in
      (counts, train1.Interp.steps)
  in
  let master = master_candidates ~table ~vrp:vrp1 p counts ~total_dyn in
  (* Step 2: value-profile every master candidate on the training input.
     Each TNV table only sees its own instruction's values, so profiling
     the (cost-independent) superset leaves per-candidate profiles
     identical to profiling any screened subset. *)
  let profiles = Hashtbl.create 64 in
  (match values with
  | Some tbl ->
    (* Streamed wire profiles replace the profiling run: replay each
       candidate's (value, count) observations into its table.
       Candidates the client never observed get empty tables and fall
       out of the cost/benefit test as [No_benefit]. *)
    List.iter
      (fun c ->
        let entries =
          Option.value ~default:[] (Hashtbl.find_opt tbl c.c_iid)
        in
        Hashtbl.replace profiles c.c_iid
          (Tnv.of_entries entries))
      master
  | None ->
    let samplers = Hashtbl.create 64 in
    List.iter
      (fun c ->
        let t = Tnv.create () in
        Hashtbl.replace profiles c.c_iid t;
        Hashtbl.replace samplers c.c_iid (Tnv.observe t))
      master;
    Span.with_ ~name:"vrs:profile" (fun () ->
        ignore (Interp.run ~profile:samplers p)));
  { a_vrp = vrp1; a_counts = counts; a_master = master; a_profiles = profiles }

(* Steps 4-5, shared by full VRS and the zero-specialization variant:
   propagate the guard-established ranges through the clones, realize
   the constant folding, and re-assign widths on the cleaned program. *)
let finish_clones config ~clone_iids ~assumptions (p : Prog.t) =
  Validate.program p;
  let vrp_cfg = { Vrp.default_config with assumptions } in
  let vrp2 = Vrp.run ~config:vrp_cfg p in
  let eliminated_in_clones =
    if config.constprop then begin
      let cp = Constprop.run vrp2 p in
      List.length
        (List.filter (fun iid -> Hashtbl.mem clone_iids iid) cp.removed_iids)
    end
    else 0
  in
  Validate.program p;
  let vrp3 = Vrp.run ~config:vrp_cfg p in
  Validate.program p;
  (vrp3, eliminated_in_clones)

let empty_report vrp =
  {
    profiled = [];
    guard_iids = Hashtbl.create 64;
    guard_branch_iids = Hashtbl.create 64;
    clone_blocks = [];
    clone_iids = Hashtbl.create 256;
    static_cloned = 0;
    static_eliminated = 0;
    assumptions = [];
    final_vrp = vrp;
  }

(* Step 3, shared by both back halves: screen the master list at this
   guard cost, then, best candidates first, weigh each range [ranges]
   allows against its guard and clone the dependent region behind the
   most profitable one.  A range must reach [min_freq] and pay for its
   guard; the CFG, use-def chains and block counts are built only once
   some range passes [min_freq].  Steps 4-5 then propagate the
   guard-established ranges, fold constants and assign final widths. *)
let specialize_with ~span ~ranges config (a : analysis) (p : Prog.t) =
  let table = Savings_table.default in
  let vrp1 = a.a_vrp in
  let cands = select_for config a.a_master in
  let report = empty_report vrp1 in
  let consumed = Hashtbl.create 64 in
  let outcomes = ref [] in
  let assumptions = ref [] in
  let clone_blocks = ref [] in
  let static_cloned = ref 0 in
  let best_range c f =
    match
      List.filter
        (fun (_, _, freq) -> freq >= min_freq)
        (ranges (Hashtbl.find a.a_profiles c.c_iid))
    with
    | [] -> None
    | frequent ->
      let cfg = Cfg.of_func f in
      let ud = Usedef.compute f cfg in
      let inst_count = make_inst_count f a.a_counts in
      let ins_ops = Hashtbl.create 256 in
      Prog.iter_ins f (fun _ ins -> Hashtbl.replace ins_ops ins.iid ins.op);
      List.fold_left
        (fun best (lo, hi, freq) ->
          let sav =
            estimate_savings ~table ~vrp:vrp1 ~ud ~ins_ops ~inst_count
              ~iid:c.c_iid ~new_width:(Width.needed_range lo hi)
              ~single:(Int64.equal lo hi)
          in
          let cost =
            float_of_int c.c_count
            *. config.test_cost_nj
            *. float_of_int (guard_instr_count ~lo ~hi)
          in
          let benefit = (freq *. sav) -. cost in
          match best with
          | Some (_, _, _, b) when b >= benefit -> best
          | _ when benefit > 0.0 -> Some (lo, hi, freq, benefit)
          | _ -> best)
        None frequent
  in
  Span.with_ ~name:span (fun () ->
  List.iter
    (fun c ->
      if Hashtbl.mem consumed c.c_iid then
        outcomes := (c.c_iid, Dependent_on_other) :: !outcomes
      else begin
        let f = Prog.find_func p c.c_fname in
        match best_range c f with
        | None -> outcomes := (c.c_iid, No_benefit) :: !outcomes
        | Some (lo, hi, freq, benefit) -> (
          match
            specialize_point p f report ~iid:c.c_iid ~x:c.c_dst ~lo ~hi
          with
          | None -> outcomes := (c.c_iid, No_benefit) :: !outcomes
          | Some (assumption, region_orig, region_clones, deps, cloned) ->
            assumptions := assumption :: !assumptions;
            static_cloned := !static_cloned + cloned;
            clone_blocks :=
              List.map (fun l -> (c.c_fname, l)) region_clones @ !clone_blocks;
            (* Later candidates inside this region, or data-dependent on
               this point, are subsumed. *)
            Hashtbl.iter (fun dep_iid () -> Hashtbl.replace consumed dep_iid ()) deps;
            List.iter
              (fun l ->
                Array.iter
                  (fun (ins : Prog.ins) -> Hashtbl.replace consumed ins.iid ())
                  f.blocks.(Label.to_int l).body)
              region_orig;
            outcomes :=
              (c.c_iid, Specialized { lo; hi; freq; benefit }) :: !outcomes)
      end)
    cands);
  let vrp3, eliminated_in_clones =
    finish_clones config ~clone_iids:report.clone_iids
      ~assumptions:!assumptions p
  in
  let r =
    {
      report with
      profiled = List.rev !outcomes;
      clone_blocks = !clone_blocks;
      static_cloned = !static_cloned;
      static_eliminated = eliminated_in_clones;
      assumptions = !assumptions;
      final_vrp = vrp3;
    }
  in
  if Metrics.enabled () then
    List.iter
      (fun (_, o) ->
        Metrics.incr
          (match o with
          | Specialized _ -> m_cand_specialized
          | Dependent_on_other -> m_cand_dependent
          | No_benefit -> m_cand_no_benefit))
      r.profiled;
  r

(* Zero specialization (AZP-style) is the min=max=0 slice: a candidate
   qualifies only when its tightest profiled range is exactly [0,0].  The
   guard is then the single-instruction Alpha zero test
   ([guard_instr_count 0 0 = 1]), and every clone is entered under the
   assumption x = 0, so constant propagation folds the dependent region
   down aggressively. *)
let zero_range tnv =
  match Tnv.candidate_ranges tnv with
  | ((0L, 0L, _) as zero) :: _ -> [ zero ]
  | _ -> []

let analyze ?vrp ?bb ?values (p : Prog.t) =
  Span.with_ ~name:"vrs:analyze" (fun () -> analyze_inner ?vrp ?bb ?values p)

let specialize ?(config = default_config) a (p : Prog.t) =
  specialize_with ~span:"vrs:specialize" ~ranges:Tnv.candidate_ranges config a
    p

let specialize_zero ?(config = default_config) a (p : Prog.t) =
  specialize_with ~span:"zspec:specialize" ~ranges:zero_range config a p

let run ?(config = default_config) (p : Prog.t) =
  Span.with_ ~name:"vrs" (fun () ->
      specialize ~config (analyze_inner p) p)
