(** Trace-driven out-of-order timing and energy model.

    The reference interpreter supplies the committed dynamic instruction
    stream; the pipeline model replays it against the Table 2 machine:
    4-wide in-order fetch through a real I-cache and combined branch
    predictor (mispredictions stall the front end until the branch
    resolves), in-order dispatch limited by the 64-entry window, dataflow
    issue limited by issue width and functional units, D-cache/L2/memory
    latencies for loads, and 4-wide in-order commit.

    Known approximations (documented in DESIGN.md): wrong-path fetch
    energy is not modelled (the trace holds committed instructions only);
    loads do not stall on unresolved store addresses (no memory
    disambiguation conflicts); returns are predicted perfectly (RAS).

    Energy is accounted per structure with the active-byte count decided
    by the {!Ogc_gating.Policy}: opcode widths for software gating,
    per-value significance for the hardware schemes. *)

open Ogc_isa
open Ogc_ir

(** How narrow values are kept in the data cache (paper §2.4): with two
    size-tag bits per value (the paper's choice, more energy benefit), or
    sign-extended to full width at the cache boundary (no cache-side
    gating, no tag overhead). *)
type memory_mode = Tagged | Sign_extend

type stats = {
  cycles : int;
  instructions : int;  (** committed, terminators included *)
  branches : int;
  mispredictions : int;
  icache_misses : int;
  dcache_accesses : int;
  dcache_misses : int;
  l2_misses : int;
  energy : Ogc_energy.Account.t;
  class_width : (Instr.iclass * Width.t, int) Hashtbl.t;
      (** committed instructions per class and encoded width *)
  opcode_counts : (int, int) Hashtbl.t;
      (** committed instructions per numeric opcode
          (see {!Ogc_isa.Encoding}); used by the §4.3 opcode-extension
          accounting *)
  sigbyte_histogram : int array;
      (** index 0..7 = result values needing 1..8 significant bytes *)
  checksum : int64;  (** from the functional run, for cross-checking *)
}

val simulate :
  ?machine:Machine_config.t ->
  ?params:Ogc_energy.Energy_params.t ->
  ?memory_mode:memory_mode ->
  ?spill_bytes_of:(int -> int option) ->
  policy:Ogc_gating.Policy.t ->
  Prog.t ->
  stats
(** [memory_mode] defaults to [Tagged].

    [spill_bytes_of iid] identifies register-allocator spill
    loads/stores by instruction id and returns their slot width in
    bytes.  A spill access moves exactly that many bytes regardless of
    policy (the allocator proved the value fits), and its bytes are
    additionally recorded in the account's
    {!Ogc_energy.Account.spill_traffic} counter.  Defaults to
    [fun _ -> None] (no instruction is a spill). *)

(** [ipc stats] = instructions / cycles. *)
val ipc : stats -> float

(** Distribution of committed width-bearing instructions (the ten Table 3
    ALU classes plus immediate moves) over the four widths; fractions sum
    to 1. *)
val width_distribution : stats -> (Width.t * float) list
