(** Typed pass manager and content-addressed artifact store.

    The paper's toolchain is a staged binary-optimizer pipeline (initial
    ranges -> VRP -> profile -> VRS -> re-encode -> simulate).  This
    module makes the staging a first-class object: a registry of named
    passes over {!Ogc_ir.Prog.t}, each with a serializable configuration,
    chained by parsing specs like ["cleanup,vrp,vrs:cost=50"].  The CLI
    ([ogc analyze] / [ogc passes]), the experiment harness
    ({!Ogc_harness.Results}) and the [ogc serve] daemon all drive their
    analyses through the same chains.

    {b Artifacts.}  A chain's input artifact is the canonical
    {!Ogc_ir.Prog_json} rendering of the entry program; every pass
    extends the address with its name and canonical config, so the
    artifact after pass [n] lives at [H(pass_n, config_n, key_(n-1))].
    With a {!Store} attached, each step is looked up before it runs:
    chains sharing a prefix (the harness's 5-point VRS cost sweep, or
    two server requests differing only in the VRS cost) compute the
    shared VRP fixpoint, basic-block profile and TNV value profiles
    once.  Snapshots deep-copy the program and share the immutable
    analysis facts, so a hit is byte-for-byte identical to a recompute
    — whatever the cache state or parallelism.

    {b Telemetry.}  Every executed pass runs under an
    {!Ogc_obs.Span} ([pass:<name>]) and records
    [ogc_pass_runs_total{pass=...}] / [ogc_pass_seconds{pass=...}];
    store hits record [ogc_pass_cache_hits_total{pass=...}]. *)

open Ogc_ir

(** Mutable pipeline state threaded through a chain: the program plus
    the analysis facts passes have installed on it.  Facts are shared
    (never mutated after installation); the program is owned. *)
type state = {
  mutable prog : Prog.t;
  mutable vrp : Ogc_core.Vrp.result option;
      (** latest VRP fixpoint, still describing [prog] *)
  mutable encoded : bool;  (** [vrp]'s widths applied to [prog] *)
  mutable bb : (Interp.bb_counts * int) option;
      (** training basic-block counts + dynamic instruction total *)
  mutable profile : Ogc_core.Vrs.analysis option;
      (** VRS candidate master list + TNV value profiles *)
  mutable report : Ogc_core.Vrs.report option;  (** last VRS report *)
  mutable wire : Profile.t option;
      (** streamed execution profile the chain was invoked with —
          environment, not an artifact fact (never snapshotted) *)
  mutable wire_ok : bool;
      (** whether [prog] still carries the instruction ids [wire]'s
          observations refer to; cleared by every transformation *)
  mutable fnc : Ogc_core.Vrp.Fn_cache.t option;
      (** the attached store's cross-run per-function VRP cache —
          environment, like [wire] *)
}

val wire_of : state -> Profile.t option
(** The streamed profile, but only while the program still has the
    instruction ids it was collected against. *)

(** A registered pass: [cleanup], [vrp], [encode-widths], [bb-profile],
    [value-profile], [vrs], [zspec] or [constprop].  A pass that needs
    an upstream fact the chain did not provide computes it on the spot
    with default configurations. *)
type t = private {
  name : string;
  doc : string;
  defaults : (string * Ogc_json.Json.t) list;
      (** canonical configuration, fixed key order *)
  exec : Ogc_json.Json.t -> state -> string;
}

val registry : t list
(** Pipeline order: cleanup, vrp, encode-widths, bb-profile,
    value-profile, vrs, zspec, constprop. *)

val find : string -> t option

val profile_dependent : string -> bool
(** Whether a pass's output depends on the execution profile
    ([bb-profile], [value-profile], [vrs], [zspec]) — these are the
    passes whose artifact addresses fold in the profile epoch. *)

(** A pass plus its canonical configuration (every key present, registry
    key order — the digest input). *)
type instance = { pass : t; config : Ogc_json.Json.t }

val parse_spec : string -> instance
(** ["vrs:cost=50:constprop=false"]: a pass name followed by
    [:key=value] overrides of its defaults.  Raises [Failure] on unknown
    passes, unknown keys or ill-typed values. *)

val parse_chain : string -> instance list
(** Comma-separated {!parse_spec}s, e.g. ["cleanup,vrp,vrs:cost=50"]. *)

val config_string : instance -> string
(** Canonical (compact, fixed-order) JSON of the instance's config. *)

val digest_prog : Prog.t -> string
(** Content address of a program state: MD5 hex of its canonical
    {!Ogc_ir.Prog_json} rendering. *)

val chain_key : instance -> string -> string
(** [chain_key inst prev] = the address of the artifact [inst] produces
    from the artifact at [prev]. *)

(** Bounded, thread-safe LRU store of pipeline-state snapshots, keyed by
    {!chain_key} addresses.  Stored states and served hits are private
    copies; analysis facts are shared read-only. *)
module Store : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** [capacity] defaults to 64 snapshots (clamped to at least 1). *)

  val find : t -> pass:string -> string -> state option
  (** A private copy of the snapshot at this address, if present;
      updates recency and the per-pass hit/miss counters.  On a local
      miss the fallback (if any) is consulted; a fallback hit is
      installed locally and counted under the per-pass replica counter
      rather than as a hit. *)

  val peek : t -> pass:string -> string -> state option
  (** Local-only lookup: no fallback, no recency update, no counters.
      This is what fallbacks themselves should use on sibling stores, so
      replica consultation can never recurse. *)

  val set_fallback : t -> (pass:string -> string -> state option) -> unit
  (** Attach a second-level lookup consulted on local misses (e.g. the
      {!peek}s of co-located shard stores, or a replication fetch).  The
      fallback runs outside the store lock and must not call {!find} or
      {!store} on this store. *)

  val store : t -> pass:string -> string -> state -> unit
  (** Idempotent: re-storing an existing address keeps the first
      snapshot. *)

  val entries : t -> int

  val fn_cache : t -> Ogc_core.Vrp.Fn_cache.t
  (** The store's cross-run per-function VRP cache, threaded into every
      chain run against this store ({!Ogc_core.Vrp.Fn_cache}). *)

  val pass_stats : t -> (string * int * int) list
  (** Per pass name (sorted): store hits and misses since creation. *)

  val replica_stats : t -> (string * int) list
  (** Per pass name (sorted): artifacts served via the fallback rather
      than locally.  Passes with zero replica hits are omitted. *)
end

(** What {!run_chain} did for one chain element. *)
type step = {
  t_pass : string;
  t_config : Ogc_json.Json.t;
  t_cached : bool;  (** served from the store; nothing executed *)
  t_summary : string;  (** one-line human summary *)
}

val run_chain :
  ?store:Store.t ->
  ?wire:Profile.t ->
  instance list ->
  Prog.t ->
  state * step list
(** Run the chain over [prog] (transformed in place — but on a store hit
    the state's program is replaced by the cached snapshot's copy, so
    callers must keep using [state.prog], not [prog]).

    [wire] supplies a streamed execution profile: profile-dependent
    passes consume it in place of their training interpreter runs (while
    the program still carries the instruction ids it refers to), and —
    when its epoch is positive — every profile-dependent step's artifact
    address is salted with that epoch, so a fresher profile re-runs
    exactly the profile-dependent suffix while the front of the chain
    keeps hitting the store.  Epoch 0 (or no [wire]) leaves every
    address byte-identical to a profile-less run. *)

val run :
  ?store:Store.t -> ?wire:Profile.t -> string -> Prog.t -> state * step list
(** [run ?store ?wire spec prog] =
    [run_chain ?store ?wire (parse_chain spec) prog]. *)
