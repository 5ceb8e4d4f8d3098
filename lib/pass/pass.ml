module Prog = Ogc_ir.Prog
module Prog_json = Ogc_ir.Prog_json
module Interp = Ogc_ir.Interp
module Vrp = Ogc_core.Vrp
module Vrs = Ogc_core.Vrs
module Cleanup = Ogc_core.Cleanup
module Constprop = Ogc_core.Constprop
module J = Ogc_json.Json
module Metrics = Ogc_obs.Metrics
module Span = Ogc_obs.Span
module Lru = Ogc_exec.Lru

(* --- pipeline state ------------------------------------------------------- *)

type state = {
  mutable prog : Prog.t;
  mutable vrp : Vrp.result option;
  mutable encoded : bool;  (* [vrp]'s widths applied to [prog] *)
  mutable bb : (Interp.bb_counts * int) option;
  mutable profile : Vrs.analysis option;
  mutable report : Vrs.report option;
  (* Environment the chain runs under, not an artifact fact: the caller's
     streamed profile.  [wire_ok] IS artifact state — it says whether the
     program still has the instruction ids [wire]'s observations were
     collected against (every transformation clears it, so a pass
     downstream of e.g. VRS falls back to training-run profiling). *)
  mutable wire : Profile.t option;
  mutable wire_ok : bool;
}

let initial prog =
  {
    prog;
    vrp = None;
    encoded = false;
    bb = None;
    profile = None;
    report = None;
    wire = None;
    wire_ok = true;
  }

(* Analysis facts are immutable once computed and keyed by instruction
   ids/labels, both of which [Prog.copy] preserves — so a snapshot deep
   copies only the program and shares the facts. *)
let snapshot st = { st with prog = Prog.copy st.prog }

(* [wire] stays the running chain's: a restored artifact must not revive
   the environment of whichever chain stored it. *)
let restore st snap =
  st.prog <- snap.prog;
  st.vrp <- snap.vrp;
  st.encoded <- snap.encoded;
  st.bb <- snap.bb;
  st.profile <- snap.profile;
  st.report <- snap.report;
  st.wire_ok <- snap.wire_ok

(* The streamed profile only while its instruction ids still match. *)
let wire_of st = if st.wire_ok then st.wire else None

(* Transformations drop every analysis fact; each pass below re-installs
   exactly those it leaves valid. *)
let invalidate st =
  st.vrp <- None;
  st.encoded <- false;
  st.bb <- None;
  st.profile <- None;
  st.wire_ok <- false

(* --- self-supplied prerequisites ------------------------------------------ *)

(* A pass that needs an upstream fact computes it on the spot when the
   chain did not provide it (so `ogc analyze --passes vrs:cost=50` works
   alone), always with default configurations — a chain that wants a
   non-default upstream spells it out. *)

let ensure_vrp st =
  match st.vrp with
  | Some r -> r
  | None ->
    let r = Vrp.analyze st.prog in
    st.vrp <- Some r;
    r

let ensure_encoded st =
  let r = ensure_vrp st in
  if not st.encoded then begin
    Vrp.apply r st.prog;
    st.encoded <- true;
    st.profile <- None
  end;
  r

let ensure_bb st =
  match st.bb with
  | Some b -> b
  | None ->
    let b =
      match wire_of st with
      | Some w -> (w.Profile.p_bb, w.Profile.p_total)
      | None ->
        let counts : Interp.bb_counts = Hashtbl.create 64 in
        let out = Interp.run ~bb_counts:counts st.prog in
        (counts, out.Interp.steps)
    in
    st.bb <- Some b;
    b

let ensure_profile st =
  match st.profile with
  | Some a -> a
  | None ->
    let vrp = ensure_encoded st in
    let bb = ensure_bb st in
    let values = Option.map Profile.values_table (wire_of st) in
    let a = Vrs.analyze ~vrp ~bb ?values st.prog in
    st.profile <- Some a;
    a

(* --- the registry --------------------------------------------------------- *)

type t = {
  name : string;
  doc : string;
  defaults : (string * J.t) list;  (* canonical config, fixed key order *)
  exec : J.t -> state -> string;  (* returns a one-line summary *)
}

let cfg_int key j =
  match J.member key j with J.Int i -> i | _ -> assert false

let cfg_bool key j =
  match J.member key j with J.Bool b -> b | _ -> assert false

let cfg_str key j =
  match J.member key j with J.Str s -> s | _ -> assert false

let cleanup_pass =
  {
    name = "cleanup";
    doc = "generic binary-optimizer cleanups: jump threading, unreachable \
           pruning";
    defaults = [];
    exec =
      (fun _ st ->
        let s = Cleanup.run st.prog in
        invalidate st;
        Printf.sprintf "threaded %d, unified %d, pruned %d blocks (%d ins)"
          s.Cleanup.threaded s.Cleanup.branches_unified s.Cleanup.pruned_blocks
          s.Cleanup.pruned_instructions);
  }

let vrp_pass =
  {
    name = "vrp";
    doc = "value range propagation fixpoint (pure analysis; encode-widths \
           applies it)";
    defaults = [ ("variant", J.Str "default"); ("jobs", J.Int 1) ];
    exec =
      (fun cfg st ->
        let config =
          match cfg_str "variant" cfg with
          | "default" -> Vrp.default_config
          | "conventional" -> Vrp.conventional_config
          | v -> Fmt.failwith "vrp: unknown variant %S" v
        in
        st.vrp <- Some (Vrp.analyze ~config ~jobs:(cfg_int "jobs" cfg) st.prog);
        st.encoded <- false;
        st.profile <- None;
        Printf.sprintf "%s fixpoint over %d instructions"
          (cfg_str "variant" cfg)
          (Prog.num_static_ins st.prog));
  }

let encode_pass =
  {
    name = "encode-widths";
    doc = "re-encode every narrowable instruction with its assigned width";
    defaults = [];
    exec =
      (fun _ st ->
        (* Width re-encoding preserves semantics and block structure, so
           an existing basic-block profile stays valid. *)
        ignore (ensure_encoded st);
        "widths applied");
  }

let bb_profile_pass =
  {
    name = "bb-profile";
    doc = "training interpreter run collecting basic-block execution counts";
    defaults = [];
    exec =
      (fun _ st ->
        st.bb <- None;
        let _, total = ensure_bb st in
        Printf.sprintf "%d dynamic instructions" total);
  }

let value_profile_pass =
  {
    name = "value-profile";
    doc = "TNV value profiles for the specialization candidate master list";
    defaults = [];
    exec =
      (fun _ st ->
        st.profile <- None;
        let a = ensure_profile st in
        Printf.sprintf "%d candidate points profiled" (Vrs.profiled_points a));
  }

(* The two specialization back halves differ only in which profiled
   ranges a candidate may take; both consume the value profiles, replace
   the VRP fact with the report's final pass (which ran on, and
   re-encoded, the transformed program) and invalidate the training and
   streamed profiles, which no longer match the cloned code. *)
let specialize_pass ~name ~doc ~specialized
    (specialize : ?config:Vrs.config -> Vrs.analysis -> Prog.t -> Vrs.report) =
  {
    name;
    doc;
    defaults = [ ("cost", J.Int 50); ("constprop", J.Bool true) ];
    exec =
      (fun cfg st ->
        let a = ensure_profile st in
        let config =
          {
            Vrs.test_cost_nj = Vrs.cost_of_label (cfg_int "cost" cfg);
            constprop = cfg_bool "constprop" cfg;
          }
        in
        let rep = specialize ~config a st.prog in
        st.report <- Some rep;
        st.vrp <- Some rep.Vrs.final_vrp;
        st.encoded <- true;
        st.bb <- None;
        st.profile <- None;
        st.wire_ok <- false;
        Printf.sprintf "%d %s, %d cloned, %d eliminated"
          (Vrs.specialized_count rep) specialized rep.Vrs.static_cloned
          rep.Vrs.static_eliminated);
  }

let vrs_pass =
  specialize_pass ~name:"vrs"
    ~doc:"value range specialization: guard-cost screening, cloning, \
          guarded re-encoding"
    ~specialized:"specialized" Vrs.specialize

let zspec_pass =
  specialize_pass ~name:"zspec"
    ~doc:"zero-value specialization: single-instruction zero-test guards \
          with constant-folded zero clones (min=max=0 profiles)"
    ~specialized:"zero-specialized" Vrs.specialize_zero

let constprop_pass =
  {
    name = "constprop";
    doc = "constant propagation, branch folding and dead-code elimination";
    defaults = [];
    exec =
      (fun _ st ->
        let vrp = ensure_vrp st in
        let s = Constprop.run vrp st.prog in
        invalidate st;
        Printf.sprintf "%d folded, %d operands, %d branches, %d removed"
          s.Constprop.folded_to_const s.Constprop.folded_operands
          s.Constprop.folded_branches s.Constprop.removed);
  }

let registry =
  [
    cleanup_pass; vrp_pass; encode_pass; bb_profile_pass; value_profile_pass;
    vrs_pass; zspec_pass; constprop_pass;
  ]

(* Passes whose output depends on the (streamed) profile: a fresher
   profile epoch must re-address exactly these artifacts and no others,
   so the chain-key salt below is applied from the first of them on. *)
let profile_dependent name =
  List.mem name [ "bb-profile"; "value-profile"; "vrs"; "zspec" ]

let find name = List.find_opt (fun p -> String.equal p.name name) registry

(* --- chain specs ---------------------------------------------------------- *)

type instance = { pass : t; config : J.t }

let parse_value key default s =
  match default with
  | J.Int _ -> (
    match int_of_string_opt s with
    | Some i -> J.Int i
    | None -> Fmt.failwith "option %s: expected an integer, got %S" key s)
  | J.Bool _ -> (
    match bool_of_string_opt s with
    | Some b -> J.Bool b
    | None -> Fmt.failwith "option %s: expected true or false, got %S" key s)
  | _ -> J.Str s

let parse_spec spec =
  match String.split_on_char ':' (String.trim spec) with
  | [] | [ "" ] -> Fmt.failwith "empty pass spec"
  | name :: opts ->
    let pass =
      match find name with
      | Some p -> p
      | None ->
        Fmt.failwith "unknown pass %S (known: %s)" name
          (String.concat ", " (List.map (fun p -> p.name) registry))
    in
    let overrides =
      List.map
        (fun opt ->
          match String.index_opt opt '=' with
          | None ->
            Fmt.failwith "%s: bad option %S (expected key=value)" name opt
          | Some i ->
            let k = String.sub opt 0 i
            and v = String.sub opt (i + 1) (String.length opt - i - 1) in
            (match List.assoc_opt k pass.defaults with
            | None ->
              Fmt.failwith "%s: unknown option %S (known: %s)" name k
                (String.concat ", " (List.map fst pass.defaults))
            | Some d -> (k, parse_value k d v)))
        opts
    in
    (* Canonical config: every key, in the registry's fixed order. *)
    let config =
      J.Obj
        (List.map
           (fun (k, d) ->
             (k, Option.value ~default:d (List.assoc_opt k overrides)))
           pass.defaults)
    in
    { pass; config }

let parse_chain s =
  match
    String.split_on_char ',' s
    |> List.filter (fun s -> String.trim s <> "")
  with
  | [] -> Fmt.failwith "empty pass chain"
  | specs -> List.map parse_spec specs

let config_string inst = J.to_string ~indent:false inst.config

(* --- content addressing --------------------------------------------------- *)

(* The input artifact of a chain is the canonical Prog_json rendering of
   the entry program; each pass then extends the address with its name
   and canonical config, so [key_n = H(pass_n, config_n, key_{n-1})] and
   two chains share every prefix artifact they have in common. *)
let digest_prog p =
  Digest.to_hex
    (Digest.string (J.to_string ~indent:false (Prog_json.to_json p)))

let chain_key inst prev =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00" [ inst.pass.name; config_string inst; prev ]))

(* --- the artifact store --------------------------------------------------- *)

module Store = struct
  type per_pass = { mutable hits : int; mutable misses : int }

  type t = {
    m : Mutex.t;
    snapshots : (string, state) Lru.t;
    by_pass : (string, per_pass) Hashtbl.t;
  }

  let create ?(capacity = 64) () =
    {
      m = Mutex.create ();
      snapshots = Lru.create capacity;
      by_pass = Hashtbl.create 8;
    }

  let counters t pass =
    match Hashtbl.find_opt t.by_pass pass with
    | Some c -> c
    | None ->
      let c = { hits = 0; misses = 0 } in
      Hashtbl.replace t.by_pass pass c;
      c

  let find t ~pass key =
    Mutex.protect t.m (fun () ->
        let c = counters t pass in
        match Lru.find t.snapshots key with
        | Some st ->
          c.hits <- c.hits + 1;
          Some (snapshot st)
        | None ->
          c.misses <- c.misses + 1;
          None)

  let store t key st =
    Mutex.protect t.m (fun () ->
        if not (Lru.mem t.snapshots key) then
          ignore (Lru.add t.snapshots key (snapshot st)))

  let entries t = Mutex.protect t.m (fun () -> Lru.length t.snapshots)

  let evictions t = Mutex.protect t.m (fun () -> Lru.evictions t.snapshots)

  let pass_stats t =
    Mutex.protect t.m (fun () ->
        Hashtbl.fold (fun n c acc -> (n, c.hits, c.misses) :: acc) t.by_pass []
        |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b))
end

(* --- telemetry ------------------------------------------------------------ *)

(* Registered at module initialization, before any domain spawns. *)
let m_runs =
  List.map
    (fun p ->
      ( p.name,
        Metrics.counter "ogc_pass_runs_total" ~labels:[ ("pass", p.name) ] ))
    registry

let m_hits =
  List.map
    (fun p ->
      ( p.name,
        Metrics.counter "ogc_pass_cache_hits_total"
          ~labels:[ ("pass", p.name) ] ))
    registry

let m_seconds =
  List.map
    (fun p ->
      ( p.name,
        Metrics.histogram "ogc_pass_seconds" ~labels:[ ("pass", p.name) ] ))
    registry

let mark tbl name f =
  match List.assoc_opt name tbl with Some m -> f m | None -> ()

(* --- chain execution ------------------------------------------------------ *)

type step = {
  t_pass : string;
  t_config : J.t;
  t_cached : bool;
  t_summary : string;
}

let run_chain ?store ?wire chain prog =
  let st = initial prog in
  st.wire <- wire;
  let epoch = match wire with Some w -> Profile.epoch w | None -> 0 in
  (* Keys are only needed (and only worth the Prog_json serialization)
     when a store is attached. *)
  let key = ref (match store with Some _ -> digest_prog prog | None -> "") in
  let steps =
    List.map
      (fun inst ->
        if store <> None then begin
          key := chain_key inst !key;
          (* Profile-dependent artifacts are additionally addressed by
             the profile epoch, so "same program, fresher profile"
             re-runs them while the front keeps hitting.  Epoch 0 (no
             profile pushed, or a legacy client) leaves every key
             byte-identical to the pre-profile scheme. *)
          if epoch > 0 && profile_dependent inst.pass.name then
            key :=
              Digest.to_hex
                (Digest.string
                   (Printf.sprintf "%s\x00profile-epoch=%d" !key epoch))
        end;
        let cached =
          match store with
          | None -> false
          | Some s -> (
            match Store.find s ~pass:inst.pass.name !key with
            | Some snap ->
              restore st snap;
              true
            | None -> false)
        in
        if cached then begin
          mark m_hits inst.pass.name Metrics.incr;
          {
            t_pass = inst.pass.name;
            t_config = inst.config;
            t_cached = true;
            t_summary = "reused cached artifact";
          }
        end
        else begin
          let summary, dt =
            Span.timed ~name:("pass:" ^ inst.pass.name)
              ~args:[ ("config", inst.config) ]
              (fun () -> inst.pass.exec inst.config st)
          in
          mark m_runs inst.pass.name Metrics.incr;
          mark m_seconds inst.pass.name (fun h -> Metrics.observe h dt);
          (match store with
          | Some s -> Store.store s !key st
          | None -> ());
          {
            t_pass = inst.pass.name;
            t_config = inst.config;
            t_cached = false;
            t_summary = summary;
          }
        end)
      chain
  in
  (st, steps)

let run ?store ?wire spec prog = run_chain ?store ?wire (parse_chain spec) prog
