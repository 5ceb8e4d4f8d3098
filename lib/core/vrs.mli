(** Value Range Specialization (paper §3).

    The profile-guided pipeline:

    + {b Candidate identification} (§3.3): after a first VRP pass,
      instructions producing wide, hot values are screened with a
      preliminary benefit analysis that assumes the cheapest possible
      guard (one comparison) and the best possible outcome (the value
      range collapses to a byte).  Survivors are the profiling points.
    + {b Value profiling}: a training run feeds each candidate's produced
      values into a {!Tnv} table (Calder-style, with periodic LFU
      cleaning).
    + {b Cost/benefit and specialization} (§3.1, §3.2, §3.4): for each
      candidate and each profiled range prefix, the expected energy gain
      [Freq(min,max) * Savings(I,r,min,max)] is weighed against the guard
      cost [InstCount(I) * InstCost(I,r)].  Profitable candidates have
      the region of dependent code dominated by the definition cloned;
      the original falls through, the clone is entered through a range
      guard ([x >= min && x <= max] — two compares and an AND-type
      operation feeding a conditional branch; a single compare when
      [min = max]; a bare branch when the value is zero, the Alpha
      single-instruction zero test).
    + A second VRP pass propagates the guard-established ranges through
      the clones ({!Vrp.assumption}), and {!Constprop} realizes the
      constant-folding/elimination the paper reports for single-value
      specializations.

    Guards use the two scratch registers the code generator reserves for
    the binary optimizer (r27/r28). *)

open Ogc_ir

type config = {
  test_cost_nj : float;
      (** energy charged per executed guard instruction when weighing a
          specialization, the paper's 30-110 nJ sweep knob *)
  constprop : bool;
      (** run constant propagation / DCE inside the clones (default
          [true]; an ablation knob) *)
}

val default_config : config

(** Why a profiled point was or was not specialized (Figure 4's three
    categories). *)
type outcome =
  | Specialized of { lo : int64; hi : int64; freq : float; benefit : float }
  | Dependent_on_other  (** swallowed by an earlier point's region *)
  | No_benefit

type report = {
  profiled : (int * outcome) list;  (** per candidate iid, decision order *)
  guard_iids : (int, unit) Hashtbl.t;  (** guard compare/AND instructions *)
  guard_branch_iids : (int, unit) Hashtbl.t;
  clone_blocks : (string * Label.t) list;
  clone_iids : (int, unit) Hashtbl.t;  (** instructions inside clones *)
  static_cloned : int;  (** clone instructions at creation time *)
  static_eliminated : int;  (** clone instructions removed by constprop *)
  assumptions : Vrp.assumption list;
  final_vrp : Vrp.result;
}

val specialized_count : report -> int

(** [cost_of_label l] maps a paper cost label (e.g. 50, the Figure 8
    30-110 nJ sweep) to the model's per-guard-instruction energy
    parameter [test_cost_nj]. *)
val cost_of_label : int -> float

(** The guard-cost-independent front half of the pipeline: the initial
    VRP result, the training basic-block profile, the candidate master
    list (screened at zero guard cost) and the TNV value profiles.  One
    analysis can be {!specialize}d repeatedly — typically once per guard
    cost of a sweep — against copies of the program state it was
    computed on. *)
type analysis

(** Number of profiled candidate points in the master list. *)
val profiled_points : analysis -> int

(** The profiling points (candidate instruction ids) in decision order —
    what a client assembling a wire profile for this program should
    sample. *)
val candidate_iids : analysis -> int list

(** [analyze ?vrp ?bb ?values prog] runs the front half on
    [prog].  [vrp] hands in an already-computed-and-applied initial VRP
    result (the analysis is then pure); without it, [Vrp.run] re-encodes
    [prog] in place first.  [bb] hands in training basic-block counts
    plus the run's dynamic instruction total, saving the first
    interpreter run.  [values] hands in streamed per-candidate
    (value, count) observations — a wire profile — replacing the
    value-profiling interpreter run entirely: each candidate's table is
    rebuilt with {!Tnv.of_entries}, and candidates absent from [values]
    profile as never-observed (so they specialize to nothing).  With
    both [bb] and [values], the analysis runs no interpreter at all.
    The analysis is independent of the guard cost: a candidate's block
    must account for at least 0.1% of the training run's dynamic
    instructions, the 256 most promising candidates are profiled, and
    each keeps an 8-entry TNV table. *)
val analyze :
  ?vrp:Vrp.result ->
  ?bb:Interp.bb_counts * int ->
  ?values:(int, (int64 * int) list) Hashtbl.t ->
  Prog.t ->
  analysis

(** [specialize ?config analysis prog] applies the back half — guard-cost
    screening, cost/benefit, cloning, the assumption-carrying VRP passes
    and constant propagation — to [prog] in place.  [prog] must be in
    the exact state [analysis] was computed on (the same program, or a
    {!Ogc_ir.Prog.copy} of it: instruction ids and labels key every
    profile).  [specialize config (analyze config p) p] is byte-for-byte
    [run config p]. *)
val specialize : ?config:config -> analysis -> Prog.t -> report

(** [specialize_zero ?config analysis prog] is {!specialize} with each
    candidate restricted to one range (the AZP-style [zspec] pass): only
    candidates whose tightest profiled range is exactly [0,0] at
    frequency >= 0.4 are considered, each guarded by the
    single-instruction zero test, cloned, and constant-folded under the
    x = 0 assumption.  Same candidate loop, in-place contract and
    [ogc_vrs_candidates_total] outcome counts as {!specialize}; a cheap
    high-yield subset of it, so running both on the same program state
    is redundant — pick one per chain. *)
val specialize_zero : ?config:config -> analysis -> Prog.t -> report

(** [run ?config prog] applies the whole VRS pipeline to [prog] in place
    (including the embedded VRP passes and constant propagation) and
    reports what happened.  [prog] must be freshly compiled (not already
    width-optimized); the training run uses the program as-is, so the
    workload's train/ref scaling is the caller's concern. *)
val run : ?config:config -> Prog.t -> report
