(* serve-mix: the service client's job, [ogc loadgen]'s traffic model
   over one connection to [ogc serve --jobs 1]. *)

module J = Ogc_json.Json
module Protocol = Ogc_server.Protocol
module Minic = Ogc_minic.Minic
module Interp = Ogc_ir.Interp
module Pipeline = Ogc_cpu.Pipeline
module Policy = Ogc_gating.Policy
module Pass = Ogc_pass.Pass
open Util
open Client

(* Mean seconds per request of the stream on a 2-core x86-64 host; sizes
   the request list to the run length. *)
let request_cost = 0.0065
let warmup_requests = 100

(* Round trips behind [server.ping_us]. *)
let pings = 200

(* Sums of the server's per-pass store hits and misses in a [stats]
   answer. *)
let pass_store j =
  match J.member "by_pass" (J.member "passes" j) with
  | J.Obj l ->
    List.fold_left
      (fun (h, m) (_, v) ->
        (h +. stat_num [ "hits" ] v, m +. stat_num [ "misses" ] v))
      (0.0, 0.0) l
  | _ -> (0.0, 0.0)

let run ~ogc ~tmp ~seed ~seconds ~traced =
  let n = max 200 (int_of_float (seconds /. request_cost)) in
  let pid0 = Inputs.pid_base seed in
  let lines = Inputs.stream ~seed ~salt:0 ~pid0 n in
  let warm =
    Inputs.stream ~seed ~salt:1 ~pid0:(pid0 + 90_000) warmup_requests
  in
  let texts a = Array.to_list (Array.map (fun l -> l.Inputs.text) a) in
  let digest = digest_strings (texts warm @ texts lines) in
  let cls i = if lines.(i).Inputs.root = i then "miss" else "hit" in
  (* Every cold line is a distinct request: size the cache to hold them
     all. *)
  let cold a =
    Array.to_list a
    |> List.filteri (fun i l -> l.Inputs.root = i)
    |> List.length
  in
  let cache = cold lines + cold warm in
  let setup_server traced k () =
    let s = start ~ogc ~tmp ~cache ~traced k in
    Array.iter (fun l -> ignore (call s l.Inputs.text)) warm;
    s
  in
  let k = ref 0 in
  let setup () =
    incr k;
    setup_server false !k ()
  in
  let s, setups = repeat_setup 3 ~setup ~release:stop in
  let before = stats s in
  let responses = Array.make n "" in
  let idx = Array.init n Fun.id in
  let send s i = call s lines.(i).Inputs.text in
  let ops, timed_s =
    timed_phase idx ~cls ~run:(send s) ~check:(fun _ i r ->
        responses.(i) <- r)
  in
  let after = stats s in
  let rss_mb = peak_rss_mb s.pid in
  stop s;
  (* Output checks, off the clock: a miss against the driver's own
     interpreter run, a hit against the first answer of its line. *)
  let energy = ref [] in
  Array.iteri
    (fun i o ->
      let r = responses.(i) and root = lines.(i).Inputs.root in
      if o.ok then expect o ~what:(Printf.sprintf "request %d" i) r (cls i);
      if o.ok then begin
        if root = i then begin
          let src = lines.(i).Inputs.source in
          let want = (Interp.run (Minic.compile src)).Interp.checksum in
          let got = checksum_of r in
          if not (Int64.equal got want) then
            fail o "request %d: checksum %Ld, interpreter %Ld" i got want
        end
        else if
          J.to_string (result_of r) <> J.to_string (result_of responses.(root))
        then fail o "request %d: hit differs from the answer of line %d" i root;
        if o.ok && J.member "pass" (result_of r) <> J.Str "none" then
          energy := energy_of r :: !energy
      end)
    ops;
  let misses_of j = stat_num [ "cache"; "misses" ] j in
  let misses = misses_of after -. misses_of before in
  let layer, docs =
    if not traced then ([], [])
    else begin
      let hits_of j = stat_num [ "cache"; "hits" ] j in
      let hits = hits_of after -. hits_of before in
      let (h1, m1), (h0, m0) = (pass_store after, pass_store before) in
      (* Traced pass: a fresh traced server, same set-up, same stream. *)
      let s = setup_server true 9 () in
      let _, traced_s =
        timed_phase idx ~cls ~run:(send s) ~check:(fun _ _ _ -> ())
      in
      let ping =
        median_us (fun () -> call s (op_line "ping")) (Array.make pings ())
      in
      let wait_ms = metrics_p50_ms s "ogc_pool_job_wait_seconds" in
      let server_doc = trace_doc s in
      stop s;
      (* In-process replay of the layers a request crosses. *)
      Spans.reset ();
      let reqs = Array.map (fun l -> l.Inputs.text) lines in
      let decode =
        median_us
          (fun l ->
            Spans.run ~layer:"json" "decode" (fun () ->
                Protocol.op_of_json (J.of_string l)))
          reqs
      in
      let parsed =
        Array.map
          (fun l ->
            match Protocol.op_of_json (J.of_string l) with
            | Protocol.Analyze r -> r
            | _ -> assert false)
          reqs
      in
      let key =
        median_us
          (fun r ->
            Spans.run ~layer:"server" "keys" (fun () ->
                ignore (Protocol.cache_key r);
                Protocol.route_key r))
          parsed
      in
      let miss_idx =
        List.filter (fun i -> cls i = "miss") (Array.to_list idx)
      in
      let payloads =
        Array.of_list
          (List.map (fun i -> J.to_string (result_of responses.(i))) miss_idx)
      in
      let payload =
        median_us
          (fun p ->
            Spans.run ~layer:"json" "payload" (fun () ->
                J.to_string (J.of_string p)))
          payloads
      in
      let sample =
        Array.of_list (List.filteri (fun j _ -> j < replayed) miss_idx)
      in
      let analyze =
        median_ms
          (fun i ->
            Spans.run ~layer:"server" "protocol.analyze" (fun () ->
                Protocol.analyze parsed.(i)))
          sample
      in
      let srcs = Array.map (fun i -> lines.(i).Inputs.source) sample in
      let compile =
        median_ms
          (fun src ->
            Spans.run ~layer:"minic" "compile" (fun () ->
                Minic.compile_with_info src))
          srcs
      in
      let progs = Array.map Minic.compile srcs in
      let interp =
        median_ms
          (fun p -> Spans.run ~layer:"ir" "interp.run" (fun () -> Interp.run p))
          progs
      in
      let sim =
        median_ms
          (fun p ->
            Spans.run ~layer:"cpu" "simulate" (fun () ->
                Pipeline.simulate ~policy:Policy.No_gating p))
          progs
      in
      let digest_ms =
        median_ms
          (fun p ->
            Spans.run ~layer:"pass" "digest" (fun () -> Pass.digest_prog p))
          progs
      in
      (* Shares of the traced pass's request time, from the unit costs:
         every request crosses the socket and the codec, a miss also
         waits for the pool, compiles, runs its chain and simulates
         twice. *)
      let per_req us = float_of_int n *. us *. 1e-6 /. traced_s in
      let per_miss ms = misses *. ms *. 1e-3 /. traced_s in
      let shares =
        [ ("json", per_req (decode +. payload));
          ("server", per_req (key +. ping)); ("exec", per_miss wait_ms);
          ("minic", per_miss compile);
          ("cpu", per_miss (2.0 *. (sim -. interp)));
          ("ir", per_miss (2.0 *. interp));
          ("core",
           per_miss (Float.max 0.0 (analyze -. compile -. (2.0 *. sim)))) ]
      in
      ( [ ("server.ping_us", ping); ("json.decode_us", decode);
          ("server.key_us", key); ("json.payload_us", payload);
          ("server.analyze_ms", analyze); ("minic.compile_ms", compile);
          ("ir.interp_call_ms", interp); ("cpu.sim_call_ms", sim);
          ("pass.digest_ms", digest_ms);
          ("server.hit_ratio", hits /. (hits +. misses));
          ("pass.store_hit_ratio",
           (h1 -. h0) /. Float.max 1.0 (h1 -. h0 +. m1 -. m0));
          ("exec.pool_wait_ms", wait_ms);
          ("trace.overhead_pct", overhead_pct ~timed_s ~traced_s);
          ("trace.dropped_events", stat_num [ "dropped_events" ] server_doc) ]
        @ share_metrics shares,
        [ ("perfbench", Spans.document ()); ("ogc serve", server_doc) ] )
    end
  in
  { setups; timed_s; ops; main = "miss"; failures = failures_list ();
    energy = !energy; rss_mb; digest; layer;
    samples =
      [ ("server.ping_us", pings); ("json.decode_us", n);
        ("server.key_us", n); ("json.payload_us", cold lines);
        ("server.analyze_ms", replayed); ("minic.compile_ms", replayed);
        ("ir.interp_call_ms", replayed); ("cpu.sim_call_ms", replayed);
        ("pass.digest_ms", replayed) ];
    exact = [ "server.hit_ratio"; "pass.store_hit_ratio" ]; docs }
