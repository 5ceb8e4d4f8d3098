(** End-to-end experiment data collection.

    For every workload, build and evaluate all the binary versions and
    gating policies the paper's evaluation needs:

    - the {b baseline} binary under no gating and under the two hardware
      schemes (significance and size compression);
    - the {b VRP} binary (useful-range propagation) under software gating
      and the two cooperative software+hardware policies;
    - the {b conventional-VRP} binary (Figure 2's comparison point);
    - the {b VRS} binaries for the five specialization-cost
      configurations (the paper's VRS 110/90/70/50/30 sweep; profiling
      always runs on the train input, evaluation on ref);
    - an execution profile of the VRS-50 binary for the run-time
      specialized-instruction accounting of Figure 6.

    The grid is embarrassingly parallel, and {!collect} shards it over an
    {!Ogc_exec.Pool} of domains: each workload is compiled once and the
    pristine program shared read-only; every binary-version task
    transforms its own {!Ogc_ir.Prog.copy}.  Results are reassembled in
    workload order, so the output is identical whatever the parallelism
    degree.

    Each binary version is expressed as an {!Ogc_pass.Pass} chain run
    against a per-workload artifact store.  A dedicated analyses phase
    warms the store with the guard-cost-independent front of the VRS
    pipeline (cleanup, VRP, width encoding, the training basic-block
    profile and the TNV value profiles) on the train input, so the
    five-cost sweep computes the VRP fixpoint once and runs the two
    training interpreter passes once per workload instead of once per
    cost point.  Store hits restore byte-identical program snapshots, so
    collections are identical with or without a warm store.

    Semantic equality (output checksums) across every version and policy
    is asserted during collection — an optimized binary that changes the
    program's output is a hard error. *)

open Ogc_isa
module Pipeline = Ogc_cpu.Pipeline

(** The paper's VRS cost labels (nJ), most expensive first. *)
val vrs_costs : int list

(** [test_cost_of_label l] maps a label (e.g. 50) to the model's
    per-guard-instruction energy parameter. *)
val test_cost_of_label : int -> float

(** What Figures 4 and 5 need from a {!Ogc_core.Vrs.report}, in a form
    that serializes: profiled-point outcome counts and the static clone
    accounting. *)
type vrs_summary = {
  points_specialized : int;
  points_dependent : int;
  points_no_benefit : int;
  static_cloned : int;
  static_eliminated : int;
}

val summarize_report : Ogc_core.Vrs.report -> vrs_summary

type wres = {
  wname : string;
  static_instructions : int;
  spill_slots_bytes : int;
      (** width-aware spill-slot bytes the allocator laid out across the
          program; 0 when nothing spilled *)
  spill_slots_naive_bytes : int;
      (** what the same slots would occupy at a uniform 8 bytes each;
          the dynamic counterpart is
          [Ogc_energy.Account.spill_traffic base_none.energy] *)
  base_none : Pipeline.stats;
  base_hwsig : Pipeline.stats;
  base_hwsize : Pipeline.stats;
  vrp_sw : Pipeline.stats;
  vrpconv_sw : Pipeline.stats;
  vrp_sig : Pipeline.stats;
  vrp_size : Pipeline.stats;
  vrs : (int * Pipeline.stats) list;  (** by cost label, software gating *)
  vrs50_sig : Pipeline.stats;
  vrs50_size : Pipeline.stats;
  vrs_reports : (int * vrs_summary) list;
  vrs50_spec_frac : float;  (** run-time fraction executed inside clones *)
  vrs50_guard_frac : float;  (** run-time fraction of guard comparisons *)
}

(** One workload's analyze-throughput microbench (sequential, train
    input, after cleanup): dense {!Ogc_core.Vrp.analyze} seconds on
    {!Ogc_obs.Clock} (best of 5), the retained naive reference engine's
    seconds (one repetition), and the dense engine's deterministic
    effort counters. *)
type analyze_bench = {
  ab_seconds : float;
  ab_naive_seconds : float;
  ab_visits : int;
  ab_rounds : int;
  ab_defs : int;
}

(** One serve-fleet loadgen run (router in front of sharded [ogc serve]
    instances, one shard killed mid-run): completion counts and the
    client-observed latency percentiles from the loadgen histogram.
    [fb_failed] is the number of submissions that exhausted their retry
    budget — the fleet-smoke criterion is that it stays zero even
    through the shard kill. *)
type fleet_bench = {
  fb_shards : int;
  fb_requests : int;
  fb_failed : int;
  fb_hedged : int;  (** requests that got a hedged second copy *)
  fb_p50_ms : float;
  fb_p95_ms : float;
  fb_p99_ms : float;
}

type t = {
  workloads : wres list;
  analyze : (string * analyze_bench) list;  (** by workload name *)
  fleet : fleet_bench option;  (** populated by the bench driver *)
  quick : bool;
}

val collect :
  ?quick:bool ->
  ?only:string list ->
  ?progress:(string -> unit) ->
  ?jobs:int ->
  unit ->
  t
(** [quick] evaluates on the train input and keeps only the VRS-50
    configuration (duplicated across labels), for fast test runs; [only]
    restricts collection to the named workloads.  [jobs] is the domain
    count ([Some 0] and [None] mean auto: [OGC_JOBS] or the machine's
    recommended domain count; see {!Ogc_exec.Pool.resolve_jobs}).
    [progress] may be invoked from worker domains, one call at a time. *)

val collect_timed :
  ?quick:bool ->
  ?only:string list ->
  ?progress:(string -> unit) ->
  ?jobs:int ->
  unit ->
  t * (string * float) list
(** {!collect} plus per-phase seconds on {!Ogc_obs.Clock}, in phase
    order (currently ["baselines"] — compile + reference run +
    hardware-gated baselines — then ["analyses"] — per-workload warm-up
    of the shared VRS analysis front in the pass-artifact store — then
    ["versions"] — the (workload × binary version) grid of pass chains —
    then ["analyze-bench"] — the sequential analyze-throughput
    microbench).
    Each phase is one {!Ogc_obs.Span.timed} extent: with tracing on,
    its [collect:*] span spans exactly the seconds reported here. *)

(** {1 Serialization}

    [to_json] is the whole collection as JSON, stable enough to hash and
    diff: object members come in a fixed order, numeric tables are
    sorted, and floats print exactly.  It is not a file format — the
    [--json] files carry {!row}s — but each workload's share of it,
    timings scrubbed, is hashed into that workload's [digest] row. *)

val to_json : t -> Ogc_json.Json.t

val without_timings : t -> t
(** The collection with the analyze wall times zeroed: what must be
    byte-identical across runs and [--jobs] values. *)

(** {1 Gated rows}

    Everything the regression gate compares is one flat list of scalar
    rows, each carrying its own gate.  [bench --json] and
    [ogc report --json] write them (one line per row, plus the phase
    timings), and [--baseline] reads them back. *)

type gate =
  | Exact  (** any change regresses *)
  | Worse_up of float
      (** regresses when the value grows by more than this fraction;
          growth from zero counts as 100% *)
  | Worse_down of float
      (** regresses when the value drops by more than this fraction *)
  | Time of float
      (** a wall-clock [Worse_up], with a tolerance loose enough for
          shared runners *)

type row = {
  series : string;
      (** ["mode"], ["digest"], ["cell"], ["spill"], ["analyze"] or
          ["fleet"] *)
  key : string;
      (** ["workload/metric"] or ["workload/config/metric"]; the
          workload is ["*"] for run-wide rows *)
  value : float;
  gate : gate;
}

val gated : t -> row list
(** The rows of a collection:
    - [mode]: whether it is a quick run ([Exact]);
    - [digest]: per workload, 48 bits of the MD5 of its {!to_json}
      share under {!without_timings} ([Exact]) — one line that moves
      whenever any of the workload's output does;
    - [cell]: per (workload, binary version), modelled energy (worse
      up) and IPC (worse down), 5%;
    - [spill]: per workload, width-aware slot bytes and baseline spill
      traffic (worse up, 5%), and [spill_width_win] — 1 while the slots
      are narrower than naive 8-byte slots or nothing spills — which
      may not drop;
    - [analyze]: per workload, the fixpoint visit and round counts
      ([Exact]) and the analyze wall seconds ([Time], 200%);
    - [fleet], when a fleet burst ran: shard, request and failed
      counts ([Exact]) and p50/p95 latency ([Time], 200%). *)

val rows_to_json : phases:(string * float) list -> row list -> Ogc_json.Json.t
(** Format [ogc-results] version 2: [rows] maps ["series/key"] to the
    value, and [phases] holds per-phase seconds, which nothing
    gates. *)

val rows_of_json : Ogc_json.Json.t -> (string * float) list
(** The ["series/key"] values of a {!rows_to_json} tree.  Raises
    [Ogc_json.Json.Parse_error] on anything else, including files of an
    older format version, whose message says to re-bless. *)

val write_json : string -> phases:(string * float) list -> t -> unit
(** Write {!gated} rows and [phases] to a file (the [--json] output). *)

(** {1 Regression comparison} *)

type regression = {
  r_workload : string;
  r_config : string;  (** e.g. "vrp_sw", "vrs50", "spill", "fleet" *)
  r_metric : string;  (** e.g. "energy_nj", "ipc", "analyze_visits" *)
  r_baseline : float;  (** [nan] when the baseline lacks the row *)
  r_current : float;
  r_delta_frac : float;  (** fractional worsening *)
}

val compare_rows : baseline:(string * float) list -> row list -> regression list
(** The rows whose gate fires against the baseline value of the same
    ["series/key"].  A row the baseline lacks is reported as missing
    rather than skipped; baseline rows the current run lacks (say, a run
    restricted with [--only]) are ignored.  A quick/full mismatch
    reports only the [mode] row. *)

val render_regressions : regression list -> string

val baseline_gate : string -> t -> unit
(** [baseline_gate path] reads a [--json] file as the baseline at once,
    so a bad one fails before any collection: exit 66 when it cannot be
    read, 65 when it is not a version-2 results file.  Applied to the
    current collection, it prints the regression table of its
    {!gated} rows and exits 3 if any regressed. *)

(** {1 Aggregation helpers} *)

(** Distribution of committed width-bearing instructions (the ten Table 3
    ALU classes plus immediate moves) over the four widths; fractions sum
    to 1. *)
val width_distribution : Pipeline.stats -> (Width.t * float) list

(** Average of distributions across workloads. *)
val average_distribution :
  t -> (wres -> Pipeline.stats) -> (Width.t * float) list

(** Table 3 rows: class, share of committed instructions, and width
    percentages within the class, averaged over workloads and ordered by
    share. *)
val class_table : t -> (wres -> Pipeline.stats) ->
  (Instr.iclass * float * (Width.t * float) list) list

(** Mean over workloads of a per-workload fraction. *)
val mean : t -> (wres -> float) -> float

(** [energy_saving w ~improved] — fraction of baseline (ungated) energy
    saved by [improved]. *)
val energy_saving : wres -> improved:Pipeline.stats -> float

val time_saving : wres -> improved:Pipeline.stats -> float
val ed2_saving : wres -> improved:Pipeline.stats -> float

(** Per-structure energy saving of [improved] vs the ungated baseline. *)
val structure_saving :
  wres -> improved:Pipeline.stats -> Ogc_energy.Energy_params.structure -> float

(** Total energy (nJ) of a run. *)
val total_energy : Pipeline.stats -> float
