(* serve-online: the online-specialization client.  A session submits a
   fresh zero-biased program for VRS (a miss), pushes the profile
   [ogc submit --push-profile auto] would build, and resubmits (answered
   stale while the server respecializes in the background); the next
   session's miss waits behind that respecialization on the single
   worker. *)

module J = Ogc_json.Json
module Protocol = Ogc_server.Protocol
module Minic = Ogc_minic.Minic
module Interp = Ogc_ir.Interp
module Pipeline = Ogc_cpu.Pipeline
module Policy = Ogc_gating.Policy
module Profile = Ogc_pass.Profile
module Vrs = Ogc_core.Vrs
open Util
open Client

(* Mean seconds per session (miss, push, stale) on a 2-core x86-64 host;
   sizes the session list to the run length. *)
let session_cost = 0.116
let warmup_sessions = 2

type session = {
  src : string;
  submit : string;
  push : string;
  want : int64;  (** the program's interpreter checksum *)
  delta : J.t;  (** the pushed profile *)
}

let session_of src =
  (* The profiling run is an ordinary interpreter run with hooks: its
     checksum is the oracle for every answer about this program. *)
  let _, _, delta, want = Inputs.profile_delta src in
  { src; submit = Inputs.vrs_request src;
    push =
      Inputs.vrs_request
        ~extra:[ ("op", J.Str "profile"); ("profile", delta) ]
        src;
    want; delta }

(* Op (k, step): step 0 submits program k, 1 pushes its profile, 2
   resubmits it. *)
let send s sessions (k, step) =
  let ss = Hashtbl.find sessions k in
  call s (if step = 1 then ss.push else ss.submit)

let respecs_of j = stat_num [ "profile"; "respecializations" ] j

(* Waits (off the clock) until the server has finished [n] more
   background respecializations than [base]. *)
let await_respecs s base n =
  let t0 = now_ns () in
  let rec loop () =
    if respecs_of (stats s) -. base < float_of_int n && secs_since t0 < 60.0
    then begin
      Unix.sleepf 0.01;
      loop ()
    end
  in
  loop ()

let run ~ogc ~tmp ~inputs_dir ~seed ~seconds ~traced =
  let pool = Inputs.load_pool inputs_dir "zero" in
  let nsess =
    min
      (Array.length pool - warmup_sessions)
      (max 20 (int_of_float (seconds /. session_cost)))
  in
  let order =
    shuffle (Random.State.make [| seed; 3 |]) (Array.init nsess Fun.id)
  in
  let digest =
    digest_strings (Array.to_list (Array.map (fun k -> pool.(k)) order))
  in
  let items =
    Array.concat
      (Array.to_list (Array.map (fun k -> [| (k, 0); (k, 1); (k, 2) |]) order))
  in
  let cls (_, step) = [| "miss"; "push"; "stale" |].(step) in
  let warm = Array.init warmup_sessions (fun j -> Array.length pool - 1 - j) in
  (* Two results per session (epoch 0, then the respecialized epoch 1). *)
  let cache = 2 * (nsess + warmup_sessions) in
  let setup_server traced k () =
    let s = start ~ogc ~tmp ~cache ~traced k in
    let sessions = Hashtbl.create 64 in
    Array.iter
      (fun j -> Hashtbl.replace sessions j (session_of pool.(j)))
      (Array.append order warm);
    let base = respecs_of (stats s) in
    Array.iter
      (fun j ->
        List.iter (fun step -> ignore (send s sessions (j, step))) [ 0; 1; 2 ])
      warm;
    await_respecs s base warmup_sessions;
    (s, sessions)
  in
  let k = ref 0 in
  let setup () =
    incr k;
    setup_server false !k ()
  in
  let (s, sessions), setups =
    repeat_setup 3 ~setup ~release:(fun (s, _) -> stop s)
  in
  let before = stats s in
  let responses = Hashtbl.create 64 in
  let ops, timed_s =
    timed_phase items ~cls ~run:(send s sessions) ~check:(fun _ it r ->
        Hashtbl.replace responses it r)
  in
  let rss_mb = peak_rss_mb s.pid in
  (* Off the clock: let the last respecializations land, then resubmit
     every session once and check the respecialized answer. *)
  await_respecs s (respecs_of before) nsess;
  let final =
    Array.map (fun k -> call s (Hashtbl.find sessions k).submit) order
  in
  let energy = ref [] in
  Array.iteri
    (fun j o ->
      let ((k, step) as it) = items.(j) in
      let r = Hashtbl.find responses it and ss = Hashtbl.find sessions k in
      let what = Printf.sprintf "session %d step %d" k step in
      match step with
      | 0 ->
        expect o ~what r "miss";
        if o.ok then begin
          if not (Int64.equal (checksum_of r) ss.want) then
            fail o "%s: checksum %Ld, interpreter %Ld" what (checksum_of r)
              ss.want;
          energy := energy_of r :: !energy
        end
      | 1 ->
        if status_of r <> "ok" || J.member "epoch" (J.of_string r) <> J.Int 1
        then fail o "%s: push answered %s" what r
      | _ ->
        expect o ~what r "stale";
        let miss = Hashtbl.find responses (k, 0) in
        if o.ok then begin
          if J.to_string (result_of r) <> J.to_string (result_of miss) then
            fail o "%s: stale answer differs from the epoch-0 answer" what;
          energy := energy_of r :: !energy
        end;
        let fin = final.(j / 3) in
        if status_of fin <> "ok" || cache_of fin <> "hit" then
          fail o "%s: resubmit after respecialization: %s/%s" what
            (status_of fin) (cache_of fin)
        else if not (Int64.equal (checksum_of fin) ss.want) then
          fail o "%s: respecialized checksum %Ld, interpreter %Ld" what
            (checksum_of fin) ss.want)
    ops;
  let after = stats s in
  stop s;
  let layer, docs =
    if not traced then ([], [])
    else begin
      let d path = stat_num path after -. stat_num path before in
      let respecs = d [ "profile"; "respecializations" ]
      and stale_served = d [ "profile"; "stale_served" ] in
      let s, sessions = setup_server true 9 () in
      let tbefore = respecs_of (stats s) in
      let _, traced_s =
        timed_phase items ~cls ~run:(send s sessions) ~check:(fun _ _ _ -> ())
      in
      await_respecs s tbefore nsess;
      let wait_ms = metrics_p50_ms s "ogc_pool_job_wait_seconds" in
      let server_doc = trace_doc s in
      stop s;
      Spans.reset ();
      let sess = Array.map (Hashtbl.find sessions) order in
      let texts = Array.map (fun ss -> J.to_string ss.delta) sess in
      let decode =
        median_us
          (fun t ->
            Spans.run ~layer:"pass" "profile.decode" (fun () ->
                Profile.of_json (J.of_string t)))
          texts
      in
      let acc = Profile.create () in
      let deltas = Array.map (fun ss -> Profile.of_json ss.delta) sess in
      Array.iter (Profile.merge_into acc) deltas;
      let merge =
        median_us
          (fun dl ->
            let c = Profile.copy acc in
            Spans.run ~layer:"pass" "profile.merge" (fun () ->
                Profile.merge_into c dl))
          deltas
      in
      (* The client's profiling run and the two specializations, with
         the pushed values. *)
      let prof_run = ref [] and vrs = ref [] and zspec = ref [] in
      Array.iter
        (fun ss ->
          let spans =
            { Inputs.span =
                (fun layer name f ->
                  let r, dt = Spans.with_ ~layer name f in
                  if name = "interp.profile_run" then
                    prof_run := (dt *. 1e3) :: !prof_run;
                  r) }
          in
          let p, _, _, _ = Inputs.profile_delta ~spans ss.src in
          let prof = Profile.of_json ss.delta in
          let bb = (prof.Profile.p_bb, prof.Profile.p_total) in
          let a = Vrs.analyze ~bb ~values:(Profile.values_table prof) p in
          let _, v =
            Spans.with_ ~layer:"core" "vrs.specialize" (fun () ->
                Vrs.specialize a (Ogc_ir.Prog.copy p))
          in
          let _, z =
            Spans.with_ ~layer:"core" "vrs.specialize_zero" (fun () ->
                Vrs.specialize_zero a (Ogc_ir.Prog.copy p))
          in
          vrs := (v *. 1e3) :: !vrs;
          zspec := (z *. 1e3) :: !zspec)
        sess;
      let med l = median (Array.of_list l) in
      let ns = float_of_int nsess in
      (* Shares of the traced pass's session time: each session's two
         server analyses (the epoch-0 miss and the background
         respecialization) replayed in-process, split into the four
         compiles and four simulations they make, the rest being the pass
         chain; plus the push's profile decode and merge. *)
      let tot = Array.make 4 0.0 in
      let sample = Array.sub sess 0 (min replayed nsess) in
      let scale = ns /. float_of_int (Array.length sample) in
      Array.iter
        (fun ss ->
          let req =
            match Protocol.op_of_json (J.of_string ss.submit) with
            | Protocol.Analyze r -> r
            | _ -> assert false
          in
          let wire = Profile.of_json ss.delta in
          let _, a0 =
            Spans.with_ ~layer:"server" "protocol.analyze" (fun () ->
                Protocol.analyze req)
          in
          let _, a1 =
            Spans.with_ ~layer:"server" "protocol.analyze ~wire" (fun () ->
                Protocol.analyze ~wire req)
          in
          let p, c =
            Spans.with_ ~layer:"minic" "compile" (fun () ->
                Minic.compile ss.src)
          in
          let _, i =
            Spans.with_ ~layer:"ir" "interp.run" (fun () -> Interp.run p)
          in
          let _, sm =
            Spans.with_ ~layer:"cpu" "simulate" (fun () ->
                Pipeline.simulate ~policy:Policy.No_gating p)
          in
          List.iteri
            (fun k v -> tot.(k) <- tot.(k) +. v)
            [ 4.0 *. c; 4.0 *. i; 4.0 *. (sm -. i);
              Float.max 0.0 (a0 +. a1 -. (4.0 *. (c +. sm))) ])
        sample;
      let share k = scale *. tot.(k) /. traced_s in
      let shares =
        [ ("pass", ns *. (decode +. merge) *. 1e-6 /. traced_s);
          ("minic", share 0); ("ir", share 1); ("cpu", share 2);
          ("core", share 3) ]
      in
      ( [ ("pass.profile_decode_us", decode); ("pass.profile_merge_us", merge);
          ("core.vrs_ms", med !vrs); ("core.zspec_ms", med !zspec);
          ("ir.profile_run_ms", med !prof_run); ("server.respecs", respecs);
          ("server.stale_served", stale_served);
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
      List.map
        (fun m -> (m, nsess))
        [ "pass.profile_decode_us"; "pass.profile_merge_us"; "core.vrs_ms";
          "core.zspec_ms"; "ir.profile_run_ms" ];
    exact = [ "server.respecs"; "server.stale_served" ]; docs }
