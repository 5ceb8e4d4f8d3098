module J = Ogc_json.Json
module Prog = Ogc_ir.Prog
module Workload = Ogc_workloads.Workload
module Policy = Ogc_gating.Policy
module Pipeline = Ogc_cpu.Pipeline
module Account = Ogc_energy.Account
module Span = Ogc_obs.Span
module Pass = Ogc_pass.Pass

let fail fmt = Fmt.kstr (fun s -> raise (J.Parse_error s)) fmt

type payload =
  | Source of string
  | Asm_text of string
  | Prog_tree of J.t
  | Workload of string

type pass = P_none | P_vrp | P_vrs

type request = {
  id : string option;
  payload : payload;
  input : Workload.input;
  pass : pass;
  policy : Policy.t;
  cost : int;
  deadline_ms : int option;
  return_program : bool;
  trace_id : string option;
  parent_span : int option;
}

type op =
  | Analyze of request
  | Stats
  | Ping
  | Metrics
  | Put of string * J.t
  | Trace
  | Flight
  | Profile of request * Ogc_pass.Profile.t
      (** a client streaming back what it observed running the program:
          the request names the program (route_key addresses the
          profile), the payload is the decoded delta *)

(* --- protocol version ----------------------------------------------------- *)

let proto_version = 1

exception Version_mismatch of int

(* A ["proto"] member must match ours exactly; its absence means a
   legacy client and is accepted (version 0 of the protocol had no
   handshake, so rejecting absence would break every deployed client
   while adding no safety). *)
let check_proto j =
  match J.member "proto" j with
  | J.Null -> ()
  | J.Int v -> if v <> proto_version then raise (Version_mismatch v)
  | _ -> fail "member \"proto\": expected an integer"

(* --- request parsing ------------------------------------------------------ *)

let pass_of_string = function
  | "none" -> P_none
  | "vrp" -> P_vrp
  | "vrs" -> P_vrs
  | s -> fail "unknown pass %S (expected none, vrp or vrs)" s

let pass_name = function P_none -> "none" | P_vrp -> "vrp" | P_vrs -> "vrs"

let policy_of_string s =
  match List.find_opt (fun p -> String.equal (Policy.name p) s) Policy.all with
  | Some p -> p
  | None ->
    fail "unknown policy %S (expected one of %s)" s
      (String.concat ", " (List.map Policy.name Policy.all))

let input_of_string = function
  | "train" -> Workload.Train
  | "ref" -> Workload.Ref
  | s -> fail "unknown input %S (expected train or ref)" s

let input_name = function Workload.Train -> "train" | Workload.Ref -> "ref"

let opt_string k j =
  match J.member k j with
  | J.Null -> None
  | J.Str s -> Some s
  | _ -> fail "member %S: expected a string" k

let opt_int k j =
  match J.member k j with
  | J.Null -> None
  | J.Int i -> Some i
  | _ -> fail "member %S: expected an integer" k

let opt_bool ~default k j =
  match J.member k j with
  | J.Null -> default
  | J.Bool b -> b
  | _ -> fail "member %S: expected a boolean" k

let request_of_json j =
  let payload =
    match
      ( opt_string "source" j, opt_string "asm" j, J.member "prog" j,
        opt_string "workload" j )
    with
    | Some s, None, J.Null, None -> Source s
    | None, Some s, J.Null, None -> Asm_text s
    | None, None, (J.Obj _ as p), None -> Prog_tree p
    | None, None, J.Null, Some w -> Workload w
    | None, None, J.Null, None ->
      fail "request carries no program (source, asm, prog or workload)"
    | _ -> fail "request carries more than one program payload"
  in
  let pass =
    match opt_string "pass" j with
    | None -> P_none
    | Some s -> pass_of_string s
  in
  let policy =
    match opt_string "policy" j with
    | Some s -> policy_of_string s
    | None -> ( match pass with P_none -> Policy.No_gating | _ -> Policy.Software)
  in
  { id = opt_string "id" j;
    payload;
    input =
      (match opt_string "input" j with
      | None -> Workload.Train
      | Some s -> input_of_string s);
    pass;
    policy;
    cost = Option.value ~default:50 (opt_int "cost" j);
    deadline_ms = opt_int "deadline_ms" j;
    return_program = opt_bool ~default:false "return_program" j;
    (* Trace context, version-gated like ["proto"]: optional members an
       older peer simply never sends.  Deliberately absent from
       {!cache_key} and {!route_key} — tracing a request must not change
       where it lands or whether it hits. *)
    trace_id = opt_string "trace_id" j;
    parent_span = opt_int "parent_span" j }

(* Replication keys travel between shards; insist on the exact shape a
   {!cache_key} has (32 lowercase hex characters) so a confused client
   can never address arbitrary strings into a shard's cache. *)
let key_arg j =
  match opt_string "key" j with
  | None -> fail "member \"key\": required"
  | Some k ->
    let hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') in
    if String.length k = 32 && String.for_all hex k then k
    else fail "member \"key\": expected 32 lowercase hex characters"

let op_of_json j =
  check_proto j;
  match opt_string "op" j with
  | None | Some "analyze" -> Analyze (request_of_json j)
  | Some "stats" -> Stats
  | Some "ping" -> Ping
  | Some "metrics" -> Metrics
  | Some "put" -> (
    match J.member "result" j with
    | J.Null -> fail "member \"result\": required"
    | r -> Put (key_arg j, r))
  | Some "trace" -> Trace
  | Some "flight" -> Flight
  | Some "profile" -> (
    (* Version-gated like ["proto"] itself: an op a legacy client never
       sends, carrying the program payload (to address the profile) and
       the observation delta. *)
    match J.member "profile" j with
    | J.Null -> fail "member \"profile\": required"
    | d -> (
      match Ogc_pass.Profile.of_json d with
      | delta -> Profile (request_of_json j, delta)
      | exception Ogc_pass.Profile.Malformed m ->
        fail "member \"profile\": %s" m))
  | Some op ->
    fail
      "unknown op %S (expected analyze, stats, ping, metrics, put, trace, \
       flight or profile)"
      op

(* --- cache key ------------------------------------------------------------ *)

(* Canonical digest input: everything that can change the result payload
   — program bytes, options, and the analyzer version (an upgraded
   analyzer must never serve a stale artifact) — and nothing that cannot
   (id, deadline). *)
let payload_kind req =
  match req.payload with
  | Source s -> ("source", s)
  | Asm_text s -> ("asm", s)
  | Prog_tree p -> ("prog", J.to_string ~indent:false p)
  | Workload w -> ("workload", w)

let cache_key ?(epoch = 0) req =
  let kind, body = payload_kind req in
  let canonical =
    J.to_string ~indent:false
      (J.Obj
         ([ ("analyzer", J.Str Version.version);
            ("kind", J.Str kind);
            ("body", J.Str body);
            ("input", J.Str (input_name req.input));
            ("pass", J.Str (pass_name req.pass));
            ("policy", J.Str (Policy.name req.policy));
            ("cost", J.Int req.cost);
            ("return_program", J.Bool req.return_program) ]
         (* Epoch 0 adds nothing, so programs nobody profiles — and
            every legacy client — keep byte-identical addresses. *)
         @ (if epoch > 0 then [ ("profile_epoch", J.Int epoch) ] else [])))
  in
  Cache.key_of_string canonical

(* Routing deliberately hashes only the program identity, not the
   options: every variant of one program (the VRS cost sweep, policy
   flips, train/ref) lands on the same primary shard, whose Pass.Store
   then serves the shared chain-prefix artifacts — the whole point of
   content-addressed sharding. *)
let route_key req =
  let kind, body = payload_kind req in
  let canonical =
    J.to_string ~indent:false
      (J.Obj
         [ ("analyzer", J.Str Version.version);
           ("kind", J.Str kind);
           ("body", J.Str body) ])
  in
  Cache.key_of_string canonical

(* --- the analysis --------------------------------------------------------- *)

(* Scale the input_scale global when the program has one (benchmarks);
   plain MiniC sources without it run as-is on both inputs. *)
let set_scale_if p input =
  if Prog.find_global p "input_scale" <> None then
    Workload.set_scale p input

(* MiniC (a workload's or the client's) comes with the register
   allocator's report; saved programs are already allocated. *)
let load payload input =
  let compiled src =
    let p, info =
      try Ogc_minic.Minic.compile_with_info src
      with Ogc_minic.Minic.Error m -> fail "MiniC: %s" m
    in
    set_scale_if p input;
    (p, Some info)
  in
  let saved p =
    (try Ogc_ir.Validate.program p
     with Ogc_ir.Validate.Invalid m -> fail "invalid program: %s" m);
    set_scale_if p input;
    (p, None)
  in
  match payload with
  | Workload name -> (
    match Workload.find name with
    | w -> compiled w.Workload.source
    | exception Not_found ->
      fail "unknown workload %S (see `ogc workloads`)" name)
  | Source src -> compiled src
  | Asm_text s ->
    saved (try Ogc_ir.Asm.parse s with Ogc_ir.Asm.Error m -> fail "asm: %s" m)
  | Prog_tree j -> saved (Ogc_ir.Prog_json.of_json j)

(* Baseline (untransformed, ungated) and optimized programs, both at the
   request's evaluation scale.  VRS mirrors the batch harness: profile
   and specialize on the train input, evaluate on the requested one.
   Transformations run as {!Ogc_pass.Pass} chains; with a [store]
   attached, requests sharing a program and differing only downstream
   (e.g. two VRS costs) reuse the common prefix artifacts — the VRP
   fixpoint and the training/value profiles — instead of recomputing
   them. *)
let build ?store ?wire req =
  match req.pass with
  | P_none ->
    let p, _ = load req.payload req.input in
    (Prog.copy p, p)
  | P_vrp ->
    let p, _ = load req.payload req.input in
    let base = Prog.copy p in
    let st, _ = Pass.run ?store "vrp,encode-widths" p in
    (base, st.Pass.prog)
  | P_vrs ->
    let p, _ = load req.payload Workload.Train in
    (* One compile serves both sides: the copy keeps every instruction id
       and owns its globals, so rescaling it leaves the training run's
       input alone. *)
    let base = Prog.copy p in
    set_scale_if base req.input;
    (* One chain at every profile epoch: a streamed profile only replaces
       the training runs behind [bb-profile] and [value-profile]. *)
    let st, _ =
      Pass.run ?store ?wire
        (Printf.sprintf "vrp,encode-widths,bb-profile,value-profile,vrs:cost=%d"
           req.cost)
        p
    in
    let p = st.Pass.prog in
    set_scale_if p req.input;
    (base, p)

let static_widths p =
  List.map
    (fun (w, n) -> (Ogc_isa.Width.to_string w, J.Int n))
    (Prog.static_widths p)

let dynamic_widths stats =
  List.map
    (fun (w, frac) -> (Ogc_isa.Width.to_string w, J.Float frac))
    (Pipeline.width_distribution stats)

let analyze ?store ?wire req =
  (* The spans must never influence the payload: with tracing on or off,
     with a cold or warm store, the same request yields byte-identical
     JSON (tested). *)
  let base, p =
    Span.with_ ~name:"build"
      ~args:[ ("pass", J.Str (pass_name req.pass)) ]
      (fun () -> build ?store ?wire req)
  in
  let opt_stats = Pipeline.simulate ~policy:req.policy p in
  let base_stats = Pipeline.simulate ~policy:Policy.No_gating base in
  if not (Int64.equal opt_stats.Pipeline.checksum base_stats.Pipeline.checksum)
  then
    Fmt.failwith
      "optimization changed the program's output (%Ld <> %Ld)"
      opt_stats.Pipeline.checksum base_stats.Pipeline.checksum;
  Span.with_ ~name:"energy" @@ fun () ->
  let energy = Account.total opt_stats.Pipeline.energy in
  let base_energy = Account.total base_stats.Pipeline.energy in
  let ipc = Pipeline.ipc opt_stats and base_ipc = Pipeline.ipc base_stats in
  J.Obj
    (List.concat
       [ [ ("pass", J.Str (pass_name req.pass));
           ("policy", J.Str (Policy.name req.policy));
           ("input", J.Str (input_name req.input));
           ("static_instructions", J.Int (Prog.num_static_ins p));
           ("widths",
            J.Obj
              [ ("static", J.Obj (static_widths p));
                ("dynamic", J.Obj (dynamic_widths opt_stats)) ]);
           ("instructions", J.Int opt_stats.Pipeline.instructions);
           ("cycles", J.Int opt_stats.Pipeline.cycles);
           ("ipc", J.Float ipc);
           ("baseline_ipc", J.Float base_ipc);
           ("ipc_delta", J.Float (ipc -. base_ipc));
           ("energy_nj", J.Float energy);
           ("baseline_energy_nj", J.Float base_energy);
           ("energy_saving",
            J.Float (Account.savings ~baseline:base_energy ~improved:energy));
           ("by_structure",
            J.Obj
              (List.map
                 (fun (st, e) ->
                   (Ogc_energy.Energy_params.structure_name st, J.Float e))
                 (Account.by_structure opt_stats.Pipeline.energy)));
           ("checksum", J.Str (Int64.to_string opt_stats.Pipeline.checksum)) ];
         (if req.return_program then
            [ ("program", Ogc_ir.Prog_json.to_json p) ]
          else []) ])
