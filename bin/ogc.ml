(* ogc — the software-controlled operand-gating toolchain driver.

   Subcommands:
     compile    compile a MiniC file (or named workload) and dump the IR
     run        execute a program in the reference interpreter
     vrp        run value range propagation and report widths
     vrs        run value range specialization and report what happened
     analyze    run a named pass chain (see `ogc passes`)
     passes     list the registered analysis passes
     sim        simulate on the Table 2 machine with a gating policy
     diff       compare the width profiles of two versions of a program
     trace      dynamic trace window, phase-span trace, or fleet trace
     report     regenerate the paper's tables and figures
     workloads  list the benchmark suite
     fuzz       differential fuzzing against the reference interpreter
     serve      run the optimization service
     submit     send one request to a running service
     router     route requests across a fleet of serve shards
     loadgen    replay a synthetic submission stream against a service *)

open Cmdliner
module Prog = Ogc_ir.Prog
module Interp = Ogc_ir.Interp
module Vrp = Ogc_core.Vrp
module Vrs = Ogc_core.Vrs
module Workload = Ogc_workloads.Workload
module Regalloc = Ogc_regalloc.Regalloc
module Pipeline = Ogc_cpu.Pipeline
module Policy = Ogc_gating.Policy
module Account = Ogc_energy.Account
module Json = Ogc_json.Json
module Metrics = Ogc_obs.Metrics
module Span = Ogc_obs.Span
module Log = Ogc_obs.Log
module Protocol = Ogc_server.Protocol

(* --- program loading ---------------------------------------------------- *)

(* The PROGRAM argument as a request payload: a .s file holds the
   assembly save format, any other file MiniC source, and anything else
   names a workload.  Every subcommand, [submit] included, reads its
   program here, and the local ones load it with the service's own
   {!Protocol.load}. *)
let payload_of_spec spec =
  if Sys.file_exists spec then
    let src = In_channel.with_open_bin spec In_channel.input_all in
    if Filename.check_suffix spec ".s" then Protocol.Asm_text src
    else Protocol.Source src
  else Protocol.Workload spec

let load_program spec input = fst (Protocol.load (payload_of_spec spec) input)

let save_arg =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE.s"
           ~doc:"Write the (possibly transformed) program in the assembly \
                 save format; it can be fed back to any subcommand.")

let maybe_save out p =
  match out with
  | None -> ()
  | Some path ->
    let oc = open_out_bin path in
    output_string oc (Ogc_ir.Asm.to_string p);
    close_out oc;
    Fmt.epr "wrote %s@." path

let program_arg =
  let doc =
    "MiniC source file, or the name of a built-in workload (see $(b,ogc \
     workloads))."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

let input_arg =
  let doc =
    "Input scale of a program with an $(i,input_scale) global (every \
     workload has one): $(b,train) or $(b,ref)."
  in
  let input_conv =
    Arg.enum [ ("train", Workload.Train); ("ref", Workload.Ref) ]
  in
  Arg.(value & opt input_conv Workload.Train
       & info [ "input" ] ~docv:"INPUT" ~doc)

let wrap f =
  try f () with
  | Json.Parse_error msg | Failure msg ->
    Fmt.epr "error: %s@." msg;
    exit 1
  | Interp.Fault msg ->
    Fmt.epr "runtime fault: %s@." msg;
    exit 2

(* --- compile -------------------------------------------------------------- *)

let compile_cmd =
  let run spec input out =
    wrap (fun () ->
        let p = load_program spec input in
        maybe_save out p;
        if out = None then Format.printf "%a@." Prog.pp p)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile and dump the Alpha-like IR")
    Term.(const run $ program_arg $ input_arg $ save_arg)

(* --- run ------------------------------------------------------------------- *)

let run_cmd =
  let run spec input =
    wrap (fun () ->
        let p = load_program spec input in
        let out = Interp.run p in
        List.iter (fun v -> Format.printf "emit: %Ld@." v) out.Interp.emitted;
        Format.printf "checksum: %Ld@." out.Interp.checksum;
        Format.printf "dynamic instructions: %d@." out.Interp.steps)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute in the reference interpreter")
    Term.(const run $ program_arg $ input_arg)

(* --- vrp -------------------------------------------------------------------- *)

let vrp_cmd =
  let conventional =
    Arg.(value & flag
         & info [ "conventional" ]
             ~doc:"Disable useful-range propagation (the Figure 2 baseline).")
  in
  let paper_literal =
    Arg.(value & flag
         & info [ "paper-literal" ]
             ~doc:"Forbid useful-width propagation through arithmetic (§2.2.5).")
  in
  let dump =
    Arg.(value & flag & info [ "dump" ] ~doc:"Dump the re-encoded program.")
  in
  let run spec input conventional paper_literal dump out =
    wrap (fun () ->
        let p = load_program spec input in
        let config =
          if conventional then Vrp.conventional_config
          else if paper_literal then
            { Vrp.default_config with useful_through_arith = false }
          else Vrp.default_config
        in
        let before = Interp.run p in
        let res = Vrp.run ~config p in
        let after = Interp.run p in
        assert (Int64.equal before.Interp.checksum after.Interp.checksum);
        maybe_save out p;
        Format.printf "%a@." Vrp.pp_summary res;
        (* The paper's syntactic trip-count analysis (§2.3), for
           comparison with the widening-based bounds. *)
        List.iter
          (fun (f : Prog.func) ->
            List.iter
              (fun (lo : Ogc_core.Tripcount.affine_loop) ->
                Format.printf
                  "affine loop in %s at L%d: iterator %a, %d iterations, range %s@."
                  f.Prog.fname
                  (Ogc_ir.Label.to_int lo.Ogc_core.Tripcount.header)
                  Ogc_isa.Reg.pp lo.Ogc_core.Tripcount.iterator
                  lo.Ogc_core.Tripcount.trip_count
                  (Ogc_core.Interval.to_string
                     lo.Ogc_core.Tripcount.iterator_range))
              (Ogc_core.Tripcount.analyze f))
          p.Prog.funcs;
        if dump then Format.printf "%a@." Prog.pp p)
  in
  Cmd.v
    (Cmd.info "vrp" ~doc:"Run value range propagation and re-encode widths")
    Term.(const run $ program_arg $ input_arg $ conventional $ paper_literal
          $ dump $ save_arg)

(* --- vrs -------------------------------------------------------------------- *)

let vrs_cmd =
  let cost =
    Arg.(value & opt int 50
         & info [ "cost" ] ~docv:"NJ"
             ~doc:"Specialization cost configuration (the paper's 30-110 sweep).")
  in
  let run spec cost out =
    wrap (fun () ->
        (* VRS trains on the train input, like the harness and the
           service. *)
        let p = load_program spec Workload.Train in
        let cfg =
          { Vrs.default_config with
            test_cost_nj = Ogc_harness.Results.test_cost_of_label cost }
        in
        let rep = Vrs.run ~config:cfg p in
        let sum = Ogc_harness.Results.summarize_report rep in
        maybe_save out p;
        Format.printf
          "profiled %d points: %d specialized, %d dependent, %d without benefit@."
          (List.length rep.Vrs.profiled)
          sum.points_specialized sum.points_dependent sum.points_no_benefit;
        Format.printf "cloned %d static instructions, eliminated %d@."
          sum.static_cloned sum.static_eliminated;
        List.iter
          (fun (iid, o) ->
            match o with
            | Vrs.Specialized { lo; hi; freq; benefit } ->
              Format.printf "  point %d: range [%Ld,%Ld] freq %.2f benefit %.0f@."
                iid lo hi freq benefit
            | _ -> ())
          rep.Vrs.profiled)
  in
  Cmd.v
    (Cmd.info "vrs" ~doc:"Run value range specialization (profile + clone)")
    Term.(const run $ program_arg $ cost $ save_arg)

(* --- sim -------------------------------------------------------------------- *)

let policy_arg =
  let policy_conv =
    Arg.enum (List.map (fun p -> (Policy.name p, p)) Policy.all)
  in
  Arg.(value & opt policy_conv Policy.No_gating
       & info [ "policy" ] ~docv:"POLICY"
           ~doc:"Gating policy: none, sw, hw-significance, hw-size, \
                 sw+significance, sw+size.")

(* The request the service answers for PROGRAM at [input] under
   [policy] after [pass] (VRS at its default cost, 50): [ogc sim] runs
   its build and [ogc trace --out] traces its analysis. *)
let service_request spec input policy pass =
  { Protocol.id = None; payload = payload_of_spec spec; input; pass; policy;
    cost = 50; deadline_ms = None; return_program = false; trace_id = None;
    parent_span = None }

let sim_cmd =
  let optimize =
    Arg.(value
         & opt
             (enum
                Protocol.[ ("none", P_none); ("vrp", P_vrp); ("vrs", P_vrs) ])
             Protocol.P_none
         & info [ "optimize" ] ~docv:"PASS"
             ~doc:"Software pass to apply first: none, vrp or vrs (trained \
                   on the train input, cost 50).  The binary is the one \
                   $(b,ogc serve) builds for the same request.")
  in
  let run spec input policy pass =
    wrap (fun () ->
        let _, p = Protocol.build (service_request spec input policy pass) in
        let s = Pipeline.simulate ~policy p in
        Format.printf "instructions : %d@." s.Pipeline.instructions;
        Format.printf "cycles       : %d (IPC %.2f)@." s.Pipeline.cycles
          (Pipeline.ipc s);
        Format.printf "branches     : %d (%d mispredicted)@." s.Pipeline.branches
          s.Pipeline.mispredictions;
        Format.printf "L1D          : %d accesses, %d misses (%d L2 misses)@."
          s.Pipeline.dcache_accesses s.Pipeline.dcache_misses s.Pipeline.l2_misses;
        Format.printf "energy       : %.0f nJ@."
          (Account.total s.Pipeline.energy);
        List.iter
          (fun (st, e) ->
            Format.printf "  %-18s %12.0f nJ@."
              (Ogc_energy.Energy_params.structure_name st)
              e)
          (Account.by_structure s.Pipeline.energy))
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:"Simulate on the out-of-order Table 2 machine and report energy")
    Term.(const run $ program_arg $ input_arg $ policy_arg $ optimize)

(* --- diff -------------------------------------------------------------------- *)

let diff_cmd =
  let program2 =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"PROGRAM2"
             ~doc:"Second program (same shape: typically the optimized .s)")
  in
  let run spec1 spec2 input =
    wrap (fun () ->
        let p1 = load_program spec1 input in
        let p2 = load_program spec2 input in
        Format.printf "static width histogram (%s -> %s):@." spec1 spec2;
        List.iter2
          (fun (w, a) (_, b) ->
            Format.printf "  %2s-bit: %5d -> %5d  (%+d)@."
              (Ogc_isa.Width.to_string w) a b (b - a))
          (Prog.static_widths p1) (Prog.static_widths p2);
        (* Per-instruction narrowings for instructions present in both. *)
        let ops1 = Hashtbl.create 256 in
        Prog.iter_all_ins p1 (fun _ _ ins ->
            Hashtbl.replace ops1 ins.Ogc_ir.Prog.iid ins.Ogc_ir.Prog.op);
        let narrowed = ref 0 and widened = ref 0 and changed = ref 0 in
        Prog.iter_all_ins p2 (fun _ _ ins ->
            match Hashtbl.find_opt ops1 ins.Ogc_ir.Prog.iid with
            | Some op1 ->
              let w1 = Ogc_isa.Instr.width op1
              and w2 = Ogc_isa.Instr.width ins.Ogc_ir.Prog.op in
              let c = Ogc_isa.Width.compare w2 w1 in
              if c < 0 then incr narrowed
              else if c > 0 then incr widened;
              if not (String.equal (Ogc_isa.Instr.to_string op1)
                        (Ogc_isa.Instr.to_string ins.Ogc_ir.Prog.op))
              then incr changed
            | None -> ());
        Format.printf
          "shared instructions: %d narrowed, %d widened, %d textually changed@."
          !narrowed !widened !changed;
        let n1 = Prog.num_static_ins p1 and n2 = Prog.num_static_ins p2 in
        Format.printf "static instructions: %d -> %d (%+d)@." n1 n2 (n2 - n1))
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Compare the width profiles of two versions of a program")
    Term.(const run $ program_arg $ program2 $ input_arg)

(* --- trace ------------------------------------------------------------------- *)

module Net = Ogc_net.Net

let trace_cmd =
  let count =
    Arg.(value & opt int 40
         & info [ "n" ] ~docv:"N" ~doc:"Number of dynamic events to show.")
  in
  let skip =
    Arg.(value & opt int 0
         & info [ "skip" ] ~docv:"N" ~doc:"Events to skip before printing.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Instead of printing interpreter events, trace the \
                   service's VRS analysis of PROGRAM (the request \
                   $(b,ogc sim --optimize vrs --policy sw) builds: compile, \
                   the five chain passes, both simulations, energy) and \
                   write a Chrome trace_event JSON file — open it at \
                   $(b,https://ui.perfetto.dev) or $(b,chrome://tracing).")
  in
  let fleet =
    Arg.(value & opt (some string) None
         & info [ "fleet" ] ~docv:"ADDR"
             ~doc:"Pull the span rings of a running fleet through its \
                   router's $(i,trace) op (ADDR is the router's Unix \
                   socket path or HOST:PORT; a single $(b,ogc serve) \
                   address also works) and merge router + every shard \
                   into one Perfetto document, written to $(b,--out) or \
                   stdout.  The processes must be running with \
                   $(b,--trace).")
  in
  (* Phase tracing: the service's own analysis of the request, every
     stage under an Obs.Span, exported as a Perfetto-loadable flame
     chart. *)
  let run_phase_trace spec input path =
    Metrics.set_enabled true;
    Span.set_enabled true;
    let r =
      Protocol.analyze
        (service_request spec input Policy.Software Protocol.P_vrs)
    in
    let structures =
      match Json.member "by_structure" r with Json.Obj l -> List.length l | _ -> 0
    in
    Format.printf "energy: %.0f nJ over %d cycles (%d structures)@."
      (Json.get_float "energy_nj" r) (Json.get_int "cycles" r) structures;
    Span.write path;
    Span.set_enabled false;
    Fmt.epr "wrote %s@." path
  in
  (* Fleet tracing: one [trace] op against the router returns its own
     rings and every reachable shard's; merge them into one document
     with a process track each.  A single serve answers with its bare
     export document — treated as a one-process fleet. *)
  let run_fleet_trace spec out =
    let c =
      try Net.connect (Net.parse_addr spec)
      with Unix.Unix_error (e, _, _) ->
        Fmt.failwith "cannot reach %s: %s (is the router up?)" spec
          (Unix.error_message e)
    in
    let line =
      Fun.protect ~finally:(fun () -> Net.close c) @@ fun () ->
      try
        Net.call c
          (Json.to_string ~indent:false
             (Json.Obj
                [ ("proto", Json.Int Protocol.proto_version);
                  ("op", Json.Str "trace") ]))
      with End_of_file -> Fmt.failwith "server closed the connection"
    in
    let j = Json.of_string line in
    (match Json.member "status" j with
    | Json.Str "ok" -> ()
    | _ -> Fmt.failwith "trace op failed: %s" line);
    let result = Json.member "result" j in
    let procs =
      match Json.member "processes" result with
      | Json.Arr ps ->
        List.filter_map
          (fun p ->
            match (Json.member "name" p, Json.member "trace" p) with
            | Json.Str n, (Json.Obj _ as t) -> Some (n, t)
            | _ -> None)
          ps
      | _ -> (
        match result with
        | Json.Obj _ ->
          let name =
            match Json.member "process" j with Json.Str n -> n | _ -> "serve"
          in
          [ (name, result) ]
        | _ -> Fmt.failwith "malformed trace response: %s" line)
    in
    let merged = Span.merge_processes procs in
    match out with
    | Some path ->
      let oc = open_out_bin path in
      output_string oc (Json.to_string merged);
      close_out oc;
      Fmt.epr "wrote %s (%d processes)@." path (List.length procs)
    | None -> print_endline (Json.to_string merged)
  in
  let program_opt =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"PROGRAM"
             ~doc:"MiniC source file, .s save file, or workload name; \
                   omitted with $(b,--fleet).")
  in
  let run spec input count skip out fleet =
    wrap (fun () ->
        match (fleet, spec) with
        | Some addr, _ -> run_fleet_trace addr out
        | None, None -> Fmt.failwith "a PROGRAM is required unless --fleet"
        | None, Some spec -> (
        match out with
        | Some path -> run_phase_trace spec input path
        | None ->
        let p = load_program spec input in
        let seen = ref 0 in
        let exception Done in
        let show = function
          | Interp.E_ins { iid; op; a; b; result; addr } ->
            if Ogc_isa.Instr.is_mem op then
              Format.printf "%8d  [%4d] %-28s a=%Ld addr=%Ld -> %Ld@." !seen iid
                (Ogc_isa.Instr.to_string op) a addr result
            else
              Format.printf "%8d  [%4d] %-28s a=%Ld b=%Ld -> %Ld@." !seen iid
                (Ogc_isa.Instr.to_string op) a b result
          | Interp.E_branch { iid; taken; value; _ } ->
            Format.printf "%8d  [%4d] branch on %Ld -> %s@." !seen iid value
              (if taken then "taken" else "not taken")
          | Interp.E_jump { iid } -> Format.printf "%8d  [%4d] jump@." !seen iid
          | Interp.E_return { iid } ->
            Format.printf "%8d  [%4d] return@." !seen iid
        in
        let on_event ev =
          if !seen >= skip then show ev;
          incr seen;
          if !seen >= skip + count then raise_notrace Done
        in
        (try ignore (Interp.run ~on_event p) with Done -> ());
        Format.printf "(%d events shown from #%d)@." (min count (!seen - skip))
          skip))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Print a window of the dynamic instruction trace, \
             ($(b,--out)) write a Chrome trace_event JSON of the whole \
             pipeline's phase spans, or ($(b,--fleet)) pull and merge a \
             running fleet's distributed trace")
    Term.(const run $ program_opt $ input_arg $ count $ skip $ out $ fleet)

(* --- report ------------------------------------------------------------------ *)

let report_cmd =
  let quick =
    Arg.(value & flag
         & info [ "quick" ]
             ~doc:"Use train inputs and only the VRS-50 configuration.")
  in
  let only =
    Arg.(value & opt_all string []
         & info [ "only" ] ~docv:"WORKLOAD" ~doc:"Restrict to a workload.")
  in
  let experiment =
    Arg.(value & opt_all string []
         & info [ "experiment" ] ~docv:"ID"
             ~doc:"Render only this table/figure (e.g. fig8); repeatable.")
  in
  let jobs =
    Arg.(value & opt int 0
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains for the collection grid; 0 means auto \
                   ($(b,OGC_JOBS) or the machine's recommended domain \
                   count).")
  in
  let run quick only experiment jobs =
    wrap (fun () ->
        let only = if only = [] then None else Some only in
        let res =
          Ogc_harness.Results.collect ~quick ?only ~jobs
            ~progress:(fun s -> Fmt.epr "[%s] %!" s)
            ()
        in
        Fmt.epr "@.";
        let exps =
          if experiment = [] then Ogc_harness.Experiments.all
          else List.map Ogc_harness.Experiments.find experiment
        in
        List.iter
          (fun (e : Ogc_harness.Experiments.experiment) ->
            print_string (Ogc_harness.Render.heading e.title);
            print_string (e.render res);
            print_newline ())
          exps;
        if experiment = [] then
          print_string
            (Ogc_harness.Experiments.render_headline
               (Ogc_harness.Experiments.headline res)))
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Regenerate the paper's tables and figures on the workload suite")
    Term.(const run $ quick $ only $ experiment $ jobs)

(* --- serve / submit ----------------------------------------------------------- *)

module Server = Ogc_server.Server

let addr_term =
  let socket =
    Arg.(value & opt string "/tmp/ogc.sock"
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket to serve on / connect to.")
  in
  let tcp_addr =
    let parse spec =
      match Net.parse_addr spec with
      | Net.Tcp _ as a -> Ok a
      | Net.Unix_sock _ ->
        Error (`Msg (Fmt.str "expected HOST:PORT, got %S" spec))
    in
    Arg.conv (parse, fun ppf a -> Fmt.string ppf (Net.addr_string a))
  in
  let tcp =
    Arg.(value & opt (some tcp_addr) None
         & info [ "tcp" ] ~docv:"HOST:PORT"
             ~doc:"Serve on / connect to a TCP address instead of the Unix \
                   socket.  HOST may be a name or a numeric address; \
                   $(b,:PORT) means 127.0.0.1.")
  in
  let combine socket tcp = Option.value tcp ~default:(Net.Unix_sock socket) in
  Term.(const combine $ socket $ tcp)

(* The flags [serve] and [router] share.  The term yields their
   application, which each daemon runs first inside [wrap]: a bad
   --log-level is then an ordinary error.  A daemon always records
   metrics, since the `metrics` op and the extended `stats` op read
   them. *)
let daemon_term =
  let quiet =
    Arg.(value & flag
         & info [ "quiet" ]
             ~doc:"Suppress lifecycle messages (same as \
                   $(b,--log-level=error)).")
  in
  let log_level =
    Arg.(value & opt (some string) None
         & info [ "log-level" ] ~docv:"LEVEL"
             ~doc:"Structured-log threshold: $(b,debug), $(b,info), \
                   $(b,warn) or $(b,error).  Logs are NDJSON on stderr.")
  in
  let trace =
    Arg.(value & flag
         & info [ "trace" ]
             ~doc:"Record request and pass spans; the $(i,trace) op \
                   returns them, and a router's also pulls every shard's \
                   and stamps forwarded requests with trace context (see \
                   $(b,ogc trace --fleet)).")
  in
  let slow_ms =
    Arg.(value & opt (some float) None
         & info [ "slow-ms" ] ~docv:"MS"
             ~doc:"Auto-capture: log the flight record (plus the local \
                   span slice of its trace) of any request slower than \
                   MS.")
  in
  let apply quiet log_level trace slow_ms () =
    (match log_level with
    | None -> ()
    | Some s -> (
      match Log.level_of_string s with
      | Some l -> Log.set_level l
      | None -> Fmt.failwith "bad --log-level %S" s));
    if quiet then Log.set_level Log.Error;
    Metrics.set_enabled true;
    if trace then Span.set_enabled true;
    Ogc_obs.Flight.set_slow_ms slow_ms
  in
  Term.(const apply $ quiet $ log_level $ trace $ slow_ms)

let serve_cmd =
  let jobs =
    Arg.(value & opt (some int) None
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains for the analysis pool (default: \
                   $(b,OGC_JOBS) or the machine's recommended domain count).")
  in
  let queue_limit =
    Arg.(value & opt int 64
         & info [ "queue-limit" ] ~docv:"N"
             ~doc:"In-flight analyses before the server replies \
                   $(i,overloaded).")
  in
  let cache_size =
    Arg.(value & opt int 256
         & info [ "cache-size" ] ~docv:"N"
             ~doc:"In-memory analysis cache capacity, in entries.")
  in
  let cache_dir =
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Persist cache entries to DIR so results survive restarts.")
  in
  let shard_id =
    Arg.(value & opt (some string) None
         & info [ "shard-id" ] ~docv:"ID"
             ~doc:"Run as fleet shard ID: namespaces $(b,--cache-dir) as \
                   $(i,DIR/shard-ID) so co-located shards never share \
                   cache files, and tags the $(i,stats) op.")
  in
  let inject_slow_ms =
    Arg.(value & opt (some float) None
         & info [ "inject-slow-ms" ] ~docv:"MS"
             ~doc:"Fault injection: delay every analyze by MS, making \
                   this a deliberately slow shard (hedging and \
                   slow-capture smoke tests).")
  in
  let run addr jobs queue_limit cache_size cache_dir shard_id daemon
      inject_slow_ms =
    wrap (fun () ->
        daemon ();
        let cfg =
          { Server.addr;
            jobs;
            queue_limit;
            cache_capacity = cache_size;
            cache_dir;
            shard_id;
            inject_slow_ms }
        in
        let t =
          try Server.create cfg
          with Unix.Unix_error (e, fn, arg) ->
            Fmt.failwith "cannot listen: %s %s: %s" fn arg
              (Unix.error_message e)
        in
        Server.install_sigint t;
        Server.run t)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the optimization service (NDJSON over a socket)")
    Term.(const run $ addr_term $ jobs $ queue_limit $ cache_size $ cache_dir
          $ shard_id $ daemon_term $ inject_slow_ms)

(* The delta `--push-profile auto` streams: the program run locally at
   train scale, as the server's VRS chain loads it. *)
let auto_profile_delta payload =
  Ogc_pass.Profile.(
    to_json (collect (fst (Protocol.load payload Workload.Train))))

let submit_cmd =
  let program =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"PROGRAM"
             ~doc:"MiniC source file, .s save file, or workload name; \
                   omitted for $(b,--stats) / $(b,--ping).")
  in
  let vrp = Arg.(value & flag & info [ "vrp" ] ~doc:"Request the VRP pass.") in
  let vrs = Arg.(value & flag & info [ "vrs" ] ~doc:"Request the VRS pass.") in
  let policy =
    Arg.(value & opt (some string) None
         & info [ "policy" ] ~docv:"POLICY"
             ~doc:"Gating policy (default: software gating when a pass runs).")
  in
  let cost =
    Arg.(value & opt (some int) None
         & info [ "cost" ] ~docv:"NJ" ~doc:"VRS cost label (30-110).")
  in
  let deadline =
    Arg.(value & opt (some int) None
         & info [ "deadline-ms" ] ~docv:"MS"
             ~doc:"Per-request deadline; an expired request is not run.")
  in
  let return_program =
    Arg.(value & flag
         & info [ "return-program" ]
             ~doc:"Include the re-encoded program in the result.")
  in
  let id =
    Arg.(value & opt (some string) None
         & info [ "id" ] ~docv:"ID" ~doc:"Opaque id echoed in the response.")
  in
  let trace_id =
    Arg.(value & opt (some string) None
         & info [ "trace-id" ] ~docv:"ID"
             ~doc:"Distributed-trace id to stamp on the request; a \
                   tracing fleet nests its spans under it ($(b,ogc trace \
                   --fleet) collects them).  Never affects routing or \
                   caching.")
  in
  let push_profile =
    Arg.(value & opt (some string) None
         & info [ "push-profile" ] ~docv:"auto|FILE"
             ~doc:"Stream an execution profile for PROGRAM back to the \
                   server (the $(i,profile) op) instead of requesting an \
                   analysis.  $(b,auto) compiles and runs the program \
                   locally, collecting block counts and value \
                   observations at the server's own profiling points; \
                   anything else names a file holding a prepared \
                   profile-delta JSON.  The response carries the \
                   program's new profile epoch.")
  in
  let stats =
    Arg.(value & flag
         & info [ "stats" ] ~doc:"Ask for the server's counters instead.")
  in
  let ping =
    Arg.(value & flag & info [ "ping" ] ~doc:"Health-check the server.")
  in
  let metrics =
    Arg.(value & flag
         & info [ "metrics" ]
             ~doc:"Fetch the server's metrics and print the Prometheus \
                   text exposition ($(b,--raw) for the JSON envelope).")
  in
  let raw =
    Arg.(value & flag
         & info [ "raw" ]
             ~doc:"Print the raw response line instead of pretty JSON.")
  in
  let retries =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry a failed connection up to N times with jittered \
                   exponential backoff (for racing a server that is \
                   still starting).")
  in
  let connect_timeout =
    Arg.(value & opt int 2000
         & info [ "connect-timeout-ms" ] ~docv:"MS"
             ~doc:"Give up on an unresponsive connect after MS \
                   milliseconds (per attempt).")
  in
  let run addr program input vrp vrs policy cost deadline return_program id
      trace_id push_profile stats ping metrics raw retries connect_timeout =
    wrap (fun () ->
        let fields = ref [ ("proto", Json.Int Protocol.proto_version) ] in
        let add k v = fields := (k, v) :: !fields in
        let payload = Option.map payload_of_spec program in
        (match (stats, ping, metrics, payload) with
        | true, _, _, _ -> add "op" (Json.Str "stats")
        | false, true, _, _ -> add "op" (Json.Str "ping")
        | false, false, true, _ -> add "op" (Json.Str "metrics")
        | false, false, false, None ->
          Fmt.failwith
            "a PROGRAM is required unless --stats, --ping or --metrics"
        | false, false, false, Some payload ->
          (match payload with
          | Protocol.Source s -> add "source" (Json.Str s)
          | Protocol.Asm_text s -> add "asm" (Json.Str s)
          | Protocol.Prog_tree j -> add "prog" j
          | Protocol.Workload w -> add "workload" (Json.Str w));
          (match (vrp, vrs) with
          | true, true -> Fmt.failwith "--vrp and --vrs are mutually exclusive"
          | true, false -> add "pass" (Json.Str "vrp")
          | false, true -> add "pass" (Json.Str "vrs")
          | false, false -> ());
          add "input" (Json.Str (Protocol.input_name input));
          Option.iter (fun p -> add "policy" (Json.Str p)) policy;
          Option.iter (fun c -> add "cost" (Json.Int c)) cost;
          Option.iter (fun d -> add "deadline_ms" (Json.Int d)) deadline;
          if return_program then add "return_program" (Json.Bool true));
        (match push_profile with
        | None -> ()
        | Some _ when stats || ping || metrics ->
          Fmt.failwith
            "--push-profile needs a PROGRAM request, not --stats, --ping \
             or --metrics"
        | Some "auto" ->
          add "op" (Json.Str "profile");
          add "profile" (auto_profile_delta (Option.get payload))
        | Some file ->
          if not (Sys.file_exists file) then
            Fmt.failwith
              "--push-profile: %s is not a file (use `auto` to collect \
               one locally)"
              file;
          let ic = open_in_bin file in
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          add "op" (Json.Str "profile");
          add "profile" (Json.of_string s));
        Option.iter (fun i -> add "id" (Json.Str i)) id;
        Option.iter (fun tr -> add "trace_id" (Json.Str tr)) trace_id;
        let request = Json.to_string ~indent:false (Json.Obj (List.rev !fields)) in
        (* Retry connect failures with backoff: a fleet smoke test may
           race its shards' startup. *)
        let rs = Random.State.make_self_init () in
        let rec connect_retry attempt =
          match Net.connect ~timeout_ms:connect_timeout addr with
          | c -> c
          | exception Unix.Unix_error (e, _, _) when attempt < retries ->
            let d = Net.backoff rs attempt in
            Log.debug "submit: retrying connect"
              ~fields:
                [ ("error", Json.Str (Unix.error_message e));
                  ("delay_s", Json.Float d) ];
            Unix.sleepf d;
            connect_retry (attempt + 1)
          | exception Unix.Unix_error (e, _, _) ->
            Fmt.failwith "cannot reach the server: %s (is `ogc serve` up?)"
              (Unix.error_message e)
        in
        let c = connect_retry 0 in
        Net.ignore_sigpipe ();
        let line =
          Fun.protect ~finally:(fun () -> Net.close c) @@ fun () ->
          match Net.call c request with
          | line -> line
          | exception End_of_file ->
            Fmt.failwith "server closed the connection"
          | exception Sys_error e -> (
            (* A server that refuses a request line (too long) answers
               and closes before reading all of it: the write fails, the
               answer is still there to read. *)
            try input_line c.Net.ic
            with End_of_file | Sys_error _ ->
              Fmt.failwith "server closed the connection: %s" e)
        in
        if raw then print_endline line
        else if metrics then
          (* The exposition member is already text/plain; print it as-is
             so the output pipes straight into promtool or grep. *)
          (match Json.member "exposition" (Json.of_string line) with
          | Json.Str text -> print_string text
          | _ ->
            print_endline (Json.to_string ~indent:true (Json.of_string line)))
        else
          print_endline (Json.to_string ~indent:true (Json.of_string line));
        match Json.member "status" (Json.of_string line) with
        | Json.Str "ok" -> ()
        | Json.Str "overloaded" -> exit 4
        | Json.Str "deadline_exceeded" -> exit 5
        | _ -> exit 1)
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit one request to a running optimization service")
    Term.(const run $ addr_term $ program $ input_arg $ vrp $ vrs $ policy
          $ cost $ deadline $ return_program $ id $ trace_id $ push_profile
          $ stats $ ping $ metrics $ raw $ retries $ connect_timeout)

(* --- router / loadgen ------------------------------------------------------ *)

module Router = Ogc_fleet.Router
module Loadgen = Ogc_fleet.Loadgen

(* A shard spec is [NAME=ADDR] (or bare [ADDR], auto-named by position),
   ADDR in {!Net.parse_addr}'s grammar. *)
let parse_shard idx spec =
  let name, addr_spec =
    match String.index_opt spec '=' with
    | Some i ->
      ( String.sub spec 0 i,
        String.sub spec (i + 1) (String.length spec - i - 1) )
    | None -> (Printf.sprintf "shard%d" idx, spec)
  in
  { Router.t_name = name; t_addr = Net.parse_addr addr_spec }

let router_cmd =
  let shards =
    Arg.(value & opt_all string []
         & info [ "shard" ] ~docv:"[NAME=]ADDR"
             ~doc:"A shard server to route to (repeatable): a Unix \
                   socket path or HOST:PORT, optionally prefixed \
                   $(i,NAME=).  At least one is required.")
  in
  let run addr shards daemon =
    wrap (fun () ->
        daemon ();
        if shards = [] then Fmt.failwith "at least one --shard is required";
        let shards = List.mapi parse_shard shards in
        let t =
          try Router.create { Router.addr; shards }
          with Unix.Unix_error (e, fn, arg) ->
            Fmt.failwith "cannot listen: %s %s: %s" fn arg
              (Unix.error_message e)
        in
        Router.install_sigint t;
        Router.run t)
  in
  Cmd.v
    (Cmd.info "router"
       ~doc:"Route requests across a fleet of serve shards \
             (consistent hashing, hedging, hot-key replication)")
    Term.(const run $ addr_term $ shards $ daemon_term)

let loadgen_cmd =
  let requests =
    Arg.(value & opt int 200
         & info [ "n"; "requests" ] ~docv:"N" ~doc:"Submissions to replay.")
  in
  let clients =
    Arg.(value & opt int 4
         & info [ "clients" ] ~docv:"N"
             ~doc:"Parallel connections (worker domains).")
  in
  let warm_ratio =
    Arg.(value & opt float 0.5
         & info [ "warm-ratio" ] ~docv:"F"
             ~doc:"Probability a submission replays an earlier one \
                   byte-for-byte (result-cache hits).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Stream seed.") in
  let retries =
    Arg.(value & opt int 5
         & info [ "retries" ] ~docv:"N"
             ~doc:"Attempts per submission before counting it failed.")
  in
  let kill_after =
    Arg.(value & opt (some int) None
         & info [ "kill-after" ] ~docv:"N"
             ~doc:"Fault injection: after N completed submissions, kill \
                   $(b,--kill-pid).")
  in
  let kill_pid =
    Arg.(value & opt (some int) None
         & info [ "kill-pid" ] ~docv:"PID"
             ~doc:"Process to SIGTERM when $(b,--kill-after) trips \
                   (a shard, to exercise hedging/failover).")
  in
  let max_p50 =
    Arg.(value & opt (some float) None
         & info [ "max-p50-ms" ] ~docv:"MS"
             ~doc:"Latency gate: exit 3 if p50 exceeds MS.")
  in
  let max_p95 =
    Arg.(value & opt (some float) None
         & info [ "max-p95-ms" ] ~docv:"MS"
             ~doc:"Latency gate: exit 3 if p95 exceeds MS.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the report as JSON.")
  in
  let trace_sample =
    Arg.(value & opt int 0
         & info [ "trace-sample" ] ~docv:"N"
             ~doc:"Stamp every Nth submission with a deterministic \
                   trace id (0 = never); a fleet running with \
                   $(b,--trace) records their distributed spans.")
  in
  let run addr requests clients warm_ratio seed retries kill_after kill_pid
      max_p50 max_p95 json trace_sample =
    wrap (fun () ->
        let cfg =
          { (Loadgen.default_config ~addr) with
            requests;
            clients;
            warm_ratio;
            seed;
            retries;
            trace_sample }
        in
        let kill =
          match (kill_after, kill_pid) with
          | Some n, Some pid ->
            Some
              ( n,
                fun () ->
                  Log.info "loadgen: killing shard"
                    ~fields:[ ("pid", Json.Int pid); ("after", Json.Int n) ];
                  try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()
              )
          | Some _, None -> Fmt.failwith "--kill-after needs --kill-pid"
          | None, Some _ -> Fmt.failwith "--kill-pid needs --kill-after"
          | None, None -> None
        in
        let r = Loadgen.run ?kill cfg in
        if json then
          print_endline
            (Json.to_string ~indent:true (Loadgen.report_json r))
        else begin
          Fmt.pr "requests   %d (ok %d, failed %d, retried %d)@."
            r.Loadgen.total r.Loadgen.ok r.Loadgen.failed r.Loadgen.retried;
          Fmt.pr "cache hits %d@." r.Loadgen.cache_hits;
          Fmt.pr "wall       %.2fs (%.0f req/s)@." r.Loadgen.wall_s
            r.Loadgen.throughput_rps;
          Fmt.pr "latency    p50 %.1fms  p95 %.1fms  p99 %.1fms@."
            r.Loadgen.p50_ms r.Loadgen.p95_ms r.Loadgen.p99_ms
        end;
        if r.Loadgen.failed > 0 then exit 2;
        let gate name limit actual =
          match limit with
          | Some l when actual > l ->
            Fmt.epr "loadgen: %s %.1fms exceeds the %.1fms gate@." name
              actual l;
            exit 3
          | _ -> ()
        in
        gate "p50" max_p50 r.Loadgen.p50_ms;
        gate "p95" max_p95 r.Loadgen.p95_ms)
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Replay a deterministic synthetic submission stream against \
             a server or fleet, with latency gates and fault injection")
    Term.(const run $ addr_term $ requests $ clients $ warm_ratio $ seed
          $ retries $ kill_after $ kill_pid $ max_p50 $ max_p95 $ json
          $ trace_sample)

(* --- analyze / passes ------------------------------------------------------ *)

module Pass = Ogc_pass.Pass

let analyze_cmd =
  let chain_arg =
    Arg.(value & opt string "cleanup,vrp,encode-widths"
         & info [ "passes" ] ~docv:"CHAIN"
             ~doc:"Comma-separated pass chain; each pass takes colon-joined \
                   $(i,key=value) options, e.g. \
                   $(b,cleanup,vrp,vrs:cost=50).  $(b,ogc passes) lists the \
                   registry.")
  in
  let json_flag =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the result as JSON (deterministic: no timings).")
  in
  let dump_alloc_flag =
    Arg.(value & flag
         & info [ "dump-alloc" ]
             ~doc:"Print the register allocator's report — coloring rounds, \
                   spill slots with their width-aware sizes, callee-saved \
                   use — before running the chain.  MiniC sources and \
                   workloads only: a $(b,.s) file holds already-allocated \
                   code.  With $(b,--json) the report goes to stderr.")
  in
  let run spec input chain json dump_alloc out =
    wrap (fun () ->
        let p, alloc = Protocol.load (payload_of_spec spec) input in
        if dump_alloc then begin
          let ppf = if json then Format.err_formatter else Format.std_formatter in
          match alloc with
          | Some info -> Format.fprintf ppf "%a@." Regalloc.pp_info info
          | None ->
            Format.fprintf ppf
              "no allocation report: %s is a saved .s program@." spec
        end;
        let st, steps = Pass.run chain p in
        let p = st.Pass.prog in
        Ogc_ir.Validate.program p;
        (* Save before the final run: a transformed program that faults
           is exactly the one worth inspecting on disk. *)
        maybe_save out p;
        let final = Interp.run p in
        if json then
          (* Deterministic by construction: pass summaries, program
             facts and the output checksum — never wall times. *)
          print_endline
            (Json.to_string ~indent:true
               (Json.Obj
                  [ ("passes",
                     Json.Arr
                       (List.map
                          (fun (s : Pass.step) ->
                            Json.Obj
                              [ ("pass", Json.Str s.Pass.t_pass);
                                ("config", s.Pass.t_config);
                                ("summary", Json.Str s.Pass.t_summary) ])
                          steps));
                    ("static_instructions",
                     Json.Int (Prog.num_static_ins p));
                    ("dynamic_instructions", Json.Int final.Interp.steps);
                    ("checksum",
                     Json.Str (Int64.to_string final.Interp.checksum)) ]))
        else begin
          List.iter
            (fun (s : Pass.step) ->
              match s.Pass.t_config with
              | Json.Obj [] ->
                Format.printf "%-14s %s@." s.Pass.t_pass s.Pass.t_summary
              | cfg ->
                Format.printf "%-14s %s  %s@." s.Pass.t_pass
                  (Json.to_string ~indent:false cfg)
                  s.Pass.t_summary)
            steps;
          Format.printf "static instructions: %d@." (Prog.num_static_ins p);
          Format.printf "dynamic instructions: %d@." final.Interp.steps;
          Format.printf "checksum: %Ld@." final.Interp.checksum
        end)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run a named pass chain over a program and report what it did")
    Term.(const run $ program_arg $ input_arg $ chain_arg $ json_flag
          $ dump_alloc_flag $ save_arg)

let passes_cmd =
  let run () =
    List.iter
      (fun (p : Pass.t) ->
        (match p.Pass.defaults with
        | [] -> Format.printf "%-14s %s@." p.Pass.name p.Pass.doc
        | ds ->
          Format.printf "%-14s %s@." p.Pass.name p.Pass.doc;
          List.iter
            (fun (k, d) ->
              Format.printf "%-14s   :%s=%s (default)@." "" k
                (Json.to_string ~indent:false d))
            ds))
      Pass.registry
  in
  Cmd.v
    (Cmd.info "passes"
       ~doc:"List the registered analysis passes and their options")
    Term.(const run $ const ())

(* --- workloads ----------------------------------------------------------------- *)

let workloads_cmd =
  let run () =
    List.iter
      (fun (w : Workload.t) ->
        Format.printf "%-10s %s@." w.Workload.name w.Workload.description)
      Workload.all
  in
  Cmd.v
    (Cmd.info "workloads" ~doc:"List the SpecInt95 surrogate benchmarks")
    Term.(const run $ const ())

(* --- fuzz -------------------------------------------------------------------- *)

let fuzz_cmd =
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"N"
             ~doc:"Campaign seed.  The same seed generates the same \
                   programs, the same pass chains and the same verdicts, \
                   whatever the parallelism.")
  in
  let count =
    Arg.(value & opt int 100
         & info [ "n"; "count" ] ~docv:"N"
             ~doc:"Number of programs to generate and check.")
  in
  let jobs =
    Arg.(value & opt int 0
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains; 0 means auto ($(b,OGC_JOBS) or the \
                   machine's recommended domain count).")
  in
  let shrink =
    Arg.(value & flag
         & info [ "shrink" ]
             ~doc:"Minimize every failing program with the delta-debugging \
                   shrinker before writing it out.")
  in
  let inject =
    Arg.(value & flag
         & info [ "inject-bug" ]
             ~doc:"Self-test: also check a deliberately miscompiling \
                   width-narrowing transform.  The campaign is expected to \
                   fail; use with $(b,--shrink) to watch the oracle and \
                   shrinker work.")
  in
  let pressure =
    Arg.(value & flag
         & info [ "pressure" ]
             ~doc:"Generate high-register-pressure MiniC programs (many \
                   live locals, deep call chains), so every program \
                   exercises the register allocator's spill paths.")
  in
  let zero_bias =
    Arg.(value & flag
         & info [ "zero-bias" ]
             ~doc:"Generate MiniC programs planted with zero-dominated \
                   values (zero globals, a never-written array feeding a \
                   hot multiply), so the $(b,zspec) zero-specialization \
                   chains in the oracle actually fire.  Takes precedence \
                   over $(b,--pressure).")
  in
  let corpus =
    Arg.(value & opt string "test/corpus"
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:"Directory failing (minimized) programs are written to in \
                   the assembly save format, with a provenance comment; \
                   committed files are replayed by the corpus regression \
                   test.")
  in
  let slug s =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' -> c
        | _ -> '-')
      s
  in
  let write_failure dir seed (f : Ogc_fuzz.Fuzz.failure) =
    let p = match f.Ogc_fuzz.Fuzz.f_min with Some p -> p | None -> f.f_prog in
    let asm = Ogc_ir.Asm.to_string p in
    let header =
      Printf.sprintf
        "# ogc fuzz counterexample: seed %d, program %d, chain %s\n# %s\n# reproduce: ogc fuzz --seed %d -n %d --shrink%s\n"
        seed f.f_index f.f_chain f.f_detail seed (f.f_index + 1)
        (match f.f_source with
        | Ogc_fuzz.Fuzz.Minic _ -> ""
        | Ogc_fuzz.Fuzz.Ir -> " (raw IR program)")
    in
    let digest = String.sub (Digest.to_hex (Digest.string asm)) 0 12 in
    let name = Printf.sprintf "ce_%s_%s.s" (slug f.f_chain) digest in
    let path = Filename.concat dir name in
    let oc = open_out_bin path in
    output_string oc header;
    output_string oc asm;
    close_out oc;
    path
  in
  let run seed count jobs shrink inject pressure zero_bias corpus =
    wrap (fun () ->
        let jobs = if jobs = 0 then None else Some jobs in
        let s =
          Ogc_fuzz.Fuzz.run ?jobs ~inject ~shrink ~pressure ~zero_bias ~seed
            ~count ()
        in
        Format.printf
          "fuzz: seed %d: %d programs (%d minic, %d ir, %d skipped), %d \
           chain checks, %d diffs@."
          s.Ogc_fuzz.Fuzz.s_seed s.s_count s.s_minic s.s_ir s.s_skipped
          s.s_chains
          (List.length s.s_failures);
        List.iter
          (fun (i, msg) ->
            Format.printf "generator error at program %d: %s@." i msg)
          s.s_gen_errors;
        if s.s_failures <> [] then begin
          if not (Sys.file_exists corpus) then Sys.mkdir corpus 0o755;
          List.iter
            (fun (f : Ogc_fuzz.Fuzz.failure) ->
              let path = write_failure corpus seed f in
              let size =
                Prog.num_static_ins
                  (match f.f_min with Some p -> p | None -> f.f_prog)
              in
              Format.printf "FAIL program %d [%s]: %s@."
                f.Ogc_fuzz.Fuzz.f_index f.f_chain f.f_detail;
              Format.printf "  %s (%d instructions%s)@." path size
                (if f.f_min = None then "" else ", minimized"))
            s.s_failures
        end;
        if s.s_failures <> [] || s.s_gen_errors <> [] then exit 1)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: random programs through every \
             optimization chain against the reference interpreter")
    Term.(const run $ seed $ count $ jobs $ shrink $ inject $ pressure
          $ zero_bias $ corpus)

let () =
  let doc = "software-controlled operand gating (CGO 2004) toolchain" in
  (* The version is generated from dune-project's (version ...) stanza. *)
  let info = Cmd.info "ogc" ~version:Ogc_server.Version.version ~doc in
  exit (Cmd.eval (Cmd.group info
                    [ compile_cmd; run_cmd; vrp_cmd; vrs_cmd; analyze_cmd;
                      passes_cmd; sim_cmd; trace_cmd; diff_cmd; fuzz_cmd;
                      report_cmd; workloads_cmd; serve_cmd; submit_cmd;
                      router_cmd; loadgen_cmd ]))
