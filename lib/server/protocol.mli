(** Wire protocol of the optimization service.

    Requests and responses are newline-delimited JSON objects (NDJSON):
    one request per line, one response line per request, in order.  A
    request carries a program in exactly one of four forms —

    - ["source"]: MiniC source text;
    - ["asm"]: the {!Ogc_ir.Asm} save format;
    - ["prog"]: a {!Ogc_ir.Prog_json} object;
    - ["workload"]: the name of a built-in benchmark —

    plus options: ["pass"] (["none"]/["vrp"]/["vrs"], default none),
    ["policy"] (a {!Ogc_gating.Policy.name}; defaults to software gating
    when a pass runs, no gating otherwise), ["input"]
    (["train"]/["ref"]), ["cost"] (the VRS cost label, default 50),
    ["deadline_ms"], ["return_program"] (include the re-encoded program
    in the result), ["id"] (opaque, echoed in the response),
    ["trace_id"]/["parent_span"] (distributed-trace context), and ["op"]
    (["analyze"] default, ["profile"], ["put"], or one of the local ops
    ["stats"], ["ping"], ["metrics"], ["trace"], ["flight"], which
    {!Front} answers the same way in serve and router).

    The result payload of an analysis contains the static and dynamic
    width histograms of the optimized program, modelled energy / IPC and
    their deltas against the untransformed ungated baseline, the
    per-structure energy split, and the output checksum (asserted equal
    to the baseline's — an optimization that changes program output is
    an error, exactly as in the batch harness). *)

type payload =
  | Source of string
  | Asm_text of string
  | Prog_tree of Ogc_json.Json.t
  | Workload of string

type pass = P_none | P_vrp | P_vrs

type request = {
  id : string option;
  payload : payload;
  input : Ogc_workloads.Workload.input;
  pass : pass;
  policy : Ogc_gating.Policy.t;
  cost : int;  (** VRS cost label (the paper's 30-110 sweep) *)
  deadline_ms : int option;
  return_program : bool;
  trace_id : string option;
      (** distributed-trace id; optional and version-gated like
          ["proto"], excluded from {!cache_key} and {!route_key} *)
  parent_span : int option;
      (** span id of the caller-side span this request should nest
          under (the router's per-attempt span) *)
}

type op =
  | Analyze of request
  | Stats
  | Ping
  | Metrics
  | Put of string * Ogc_json.Json.t
      (** replication: install a result under its key *)
  | Trace  (** return this process's span rings ({!Ogc_obs.Span.export}) *)
  | Flight  (** return the flight-recorder ring ({!Ogc_obs.Flight}) *)
  | Profile of request * Ogc_pass.Profile.t
      (** a client streaming back execution observations for a program
          it previously submitted: the request names the program (its
          {!route_key} addresses the accumulated profile), the payload
          is the decoded ["profile"] delta.  Version-gated like
          ["proto"] — legacy clients never send it. *)

val proto_version : int
(** Version of this wire protocol (carried as the ["proto"] request
    member). *)

exception Version_mismatch of int
(** A request declared a ["proto"] other than {!proto_version} (the
    payload is the client's version).  Servers answer with a structured
    ["unsupported_protocol"] error instead of attempting to parse the
    rest of the request. *)

val op_of_json : Ogc_json.Json.t -> op
(** Raises [Ogc_json.Json.Parse_error] on malformed requests and
    {!Version_mismatch} on a protocol version conflict.  An absent
    ["proto"] member denotes a pre-handshake client and is accepted.
    [put] keys must be 32 lowercase hex characters (the {!cache_key}
    shape). *)

val pass_name : pass -> string
val input_name : Ogc_workloads.Workload.input -> string

val cache_key : ?epoch:int -> request -> string
(** Content address of a request: MD5 over a canonical rendering of the
    program payload, every result-affecting option, and the analyzer
    version — never over [id] or [deadline_ms].  Two requests with equal
    keys receive byte-identical result payloads.  [epoch] (default 0) is
    the program's profile epoch: a positive epoch joins the digest
    input, so each profile push re-addresses the whole result, while
    epoch 0 — no profile, and every legacy client — leaves the key
    byte-identical to what it always was. *)

val route_key : request -> string
(** Shard-placement address: MD5 over the program payload and analyzer
    version {e only}.  All option variants of one program (the VRS cost
    sweep, policy or input flips) share a route key, so a router sending
    equal route keys to one shard concentrates that program's
    chain-prefix artifacts in a single warm {!Ogc_pass.Pass.Store}. *)

val load :
  payload ->
  Ogc_workloads.Workload.input ->
  Ogc_ir.Prog.t * Ogc_regalloc.Regalloc.info option
(** The program a payload names, scaled to [input] when it has an
    [input_scale] global (every workload does).  MiniC — a source or a
    workload — comes with the register allocator's report; a saved
    (["asm"] or ["prog"]) program is already allocated and has none.
    The one loader behind the service and the [ogc] CLI.  Raises
    [Parse_error] on a bad or unknown program. *)

val build :
  ?store:Ogc_pass.Pass.Store.t ->
  ?wire:Ogc_pass.Profile.t ->
  request ->
  Ogc_ir.Prog.t * Ogc_ir.Prog.t
(** The baseline (untransformed) and optimized binaries of a request,
    both scaled to its [input]: [none] is the loaded program, [vrp] the
    [vrp,encode-widths] chain, [vrs] the
    [vrp,encode-widths,bb-profile,value-profile,vrs:cost=N] chain
    trained on the train input, the same five passes at every profile
    epoch.  [store] and [wire] are {!analyze}'s.  Raises [Parse_error]
    like {!load}. *)

val analyze :
  ?store:Ogc_pass.Pass.Store.t ->
  ?wire:Ogc_pass.Profile.t ->
  request ->
  Ogc_json.Json.t
(** Run the requested pass chain and simulation; the cacheable result
    payload.  [store] is an {!Ogc_pass.Pass.Store} of intermediate
    artifacts: requests sharing a program and a chain prefix (e.g. two
    VRS requests differing only in [cost]) then reuse the VRP fixpoint
    and the training/value profiles instead of recomputing them — with
    byte-identical results, warm or cold.  [wire] is the program's
    accumulated streamed profile: a VRS request then takes its block
    counts and value profiles from the client's observations in place
    of its training interpreter runs, and runs the same chain — so the
    only interpreter runs left are the two simulations.  A wire profile
    of the train-input run ([ogc submit --push-profile auto]) therefore
    yields the epoch-0 answer byte for byte.  Raises [Parse_error] on
    bad programs and [Failure] when an optimization changes the
    program's output. *)
