module J = Ogc_json.Json
module Net = Ogc_net.Net
module Protocol = Ogc_server.Protocol
module Pool = Ogc_exec.Pool
module Metrics = Ogc_obs.Metrics
module Clock = Ogc_obs.Clock

type config = {
  addr : Net.addr;
  requests : int;
  clients : int;
  warm_ratio : float;
  cost_sweep : bool;
  workloads : string list;
  programs : int;
  seed : int;
  retries : int;
  trace_sample : int;
}

let default_config ~addr =
  { addr;
    requests = 200;
    clients = 4;
    warm_ratio = 0.5;
    cost_sweep = true;
    workloads = [];
    programs = 6;
    seed = 42;
    retries = 5;
    trace_sample = 0 }

type report = {
  total : int;
  ok : int;
  failed : int;
  retried : int;
  cache_hits : int;
  wall_s : float;
  throughput_rps : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  latency_hist : (float * int) list;
  overflow : int;
}

(* --- the request stream ---------------------------------------------------- *)

(* A small family of loop-and-mask MiniC programs in the paper's sweet
   spot: narrow masked values a VRP/VRS chain actually bites on, but
   compiling and simulating in milliseconds so the driver measures the
   fleet, not the analyzer. *)
let source_of pid =
  Printf.sprintf
    {|
    int source = %d;
    int main() {
      int acc = 0;
      for (int i = 0; i < %d; i++) {
        int x = (source + i * %d) & 0xFF;
        acc = acc + (x & %d);
      }
      emit(acc & 0xFFFF);
      return 0;
    }
    |}
    (101 + (17 * pid))
    (40 + (8 * (pid mod 5)))
    (3 + pid)
    (0x0F + ((pid mod 3) * 0x30))

let costs = [| 30; 50; 70; 90; 110 |]

let cold_line cfg rs i =
  let payload =
    if
      cfg.workloads <> []
      && Random.State.float rs 1.0 < 0.25
    then
      ( "workload",
        J.Str
          (List.nth cfg.workloads
             (Random.State.int rs (List.length cfg.workloads))) )
    else
      ("source", J.Str (source_of (Random.State.int rs (max 1 cfg.programs))))
  in
  let pass_members =
    if cfg.cost_sweep && Random.State.float rs 1.0 < 0.7 then
      [ ("pass", J.Str "vrs");
        ("cost", J.Int costs.(Random.State.int rs (Array.length costs))) ]
    else if Random.State.bool rs then [ ("pass", J.Str "vrp") ]
    else []
  in
  J.to_string ~indent:false
    (J.Obj
       ([ ("proto", J.Int Protocol.proto_version);
          ("id", J.Str (Printf.sprintf "r%d" i));
          payload ]
       @ pass_members))

(* Request [i] is a pure function of the seed: a warm request replays an
   earlier index's line byte-for-byte (the chain of warm hops always
   lands on a smaller index, so this terminates), a cold one is drawn
   from the program family above.  Byte-identical replays are what makes
   the warm fraction hit the fleet's result caches. *)
let request_line cfg i =
  let rec gen i =
    let rs = Random.State.make [| cfg.seed; i |] in
    if i > 0 && Random.State.float rs 1.0 < cfg.warm_ratio then
      gen (Random.State.int rs i)
    else cold_line cfg rs i
  in
  gen i

(* Every [trace_sample]-th submission carries a deterministic trace id (a
   digest of the seed and index).  Trace members are excluded from cache
   and route keys by construction, so sampling never perturbs placement
   or hit rates — a traced replay of a warm line still hits. *)
let traced_line cfg i line =
  if cfg.trace_sample <= 0 || i mod cfg.trace_sample <> 0 then line
  else
    match J.of_string line with
    | J.Obj ms ->
      let tr =
        Digest.to_hex
          (Digest.string (Printf.sprintf "loadgen/%d/%d" cfg.seed i))
      in
      J.to_string ~indent:false (J.Obj (ms @ [ ("trace_id", J.Str tr) ]))
    | _ | (exception J.Parse_error _) -> line

(* --- latency histogram ----------------------------------------------------- *)

(* Finer than the default second-denominated buckets: fleet round trips
   sit between half a millisecond (cache hit over a Unix socket) and
   seconds (cold VRS chain under load). *)
let lat_buckets =
  [| 0.0005; 0.001; 0.002; 0.003; 0.005; 0.0075; 0.01; 0.015; 0.02; 0.03;
     0.05; 0.075; 0.1; 0.15; 0.2; 0.3; 0.5; 0.75; 1.0; 1.5; 2.0; 3.0; 5.0;
     7.5; 10.0 |]

let m_lat = Metrics.histogram "ogc_loadgen_seconds" ~buckets:lat_buckets

let percentile_of_counts ~before ~after q =
  Metrics.percentile_of_counts ~buckets:lat_buckets ~before ~after q

(* --- client side ----------------------------------------------------------- *)

type tally = {
  mutable c_ok : int;
  mutable c_failed : int;
  mutable c_retried : int;
  mutable c_cache_hits : int;
}

(* One client: a persistent connection replaying its slice of the
   stream in index order, reconnecting (with backoff) on I/O errors and
   retrying retryable statuses.  Per-submission wall time — including
   retries, which real callers also wait through — goes into the shared
   histogram. *)
let client cfg ~completed ~kill c_idx =
  let rs = Random.State.make [| cfg.seed; 0x10ad; c_idx |] in
  let tally = { c_ok = 0; c_failed = 0; c_retried = 0; c_cache_hits = 0 } in
  let conn = ref None in
  let get_conn () =
    match !conn with
    | Some c -> c
    | None ->
      let c = Net.connect cfg.addr in
      conn := Some c;
      c
  in
  let drop_conn () =
    Option.iter Net.close !conn;
    conn := None
  in
  let submit line =
    let rec attempt n =
      let retry () =
        if n >= cfg.retries then false
        else begin
          tally.c_retried <- tally.c_retried + 1;
          Unix.sleepf (Net.backoff rs n);
          attempt (n + 1)
        end
      in
      match Net.call (get_conn ()) line with
      | exception _ ->
        drop_conn ();
        retry ()
      | resp -> (
        match J.of_string resp with
        | exception J.Parse_error _ -> retry ()
        | j -> (
          match J.member "status" j with
          | J.Str "ok" ->
            (match J.member "cache" j with
            | J.Str "hit" -> tally.c_cache_hits <- tally.c_cache_hits + 1
            | _ -> ());
            true
          | J.Str ("overloaded" | "unavailable") -> retry ()
          | _ ->
            (* A structured analysis error is deterministic; retrying
               cannot change it. *)
            false))
    in
    attempt 0
  in
  let i = ref c_idx in
  while !i < cfg.requests do
    let line = traced_line cfg !i (request_line cfg !i) in
    let t0 = Clock.now () in
    let ok = submit line in
    Metrics.observe m_lat (Clock.since t0);
    if ok then tally.c_ok <- tally.c_ok + 1
    else tally.c_failed <- tally.c_failed + 1;
    let done_now = 1 + Atomic.fetch_and_add completed 1 in
    (match kill with
    | Some (at, fired, f) ->
      if done_now >= at && not (Atomic.exchange fired true) then f ()
    | None -> ());
    i := !i + cfg.clients
  done;
  drop_conn ();
  tally

(* --- the run --------------------------------------------------------------- *)

let run ?kill cfg =
  (* A shard kill mid-run closes sockets under our clients; the write
     must fail with EPIPE (and be retried), not kill the process. *)
  Net.ignore_sigpipe ();
  let clients = max 1 cfg.clients in
  let was_enabled = Metrics.enabled () in
  Metrics.set_enabled true;
  let before = fst (Metrics.histogram_counts m_lat) in
  let completed = Atomic.make 0 in
  let kill =
    Option.map (fun (at, f) -> (at, Atomic.make false, f)) kill
  in
  let t0 = Clock.now () in
  let tallies =
    Fun.protect
      ~finally:(fun () -> Metrics.set_enabled was_enabled)
      (fun () ->
        Pool.map ~jobs:clients
          (client { cfg with clients } ~completed ~kill)
          (List.init clients Fun.id))
  in
  let wall_s = Clock.since t0 in
  let after = fst (Metrics.histogram_counts m_lat) in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 tallies in
  let total = cfg.requests in
  let pct q = percentile_of_counts ~before ~after q *. 1000.0 in
  let latency_hist =
    List.init (Array.length lat_buckets) (fun i ->
        (lat_buckets.(i), int_of_float (after.(i) -. before.(i))))
  in
  let n = Array.length lat_buckets in
  let overflow = int_of_float (after.(n) -. before.(n)) in
  { total;
    ok = sum (fun t -> t.c_ok);
    failed = sum (fun t -> t.c_failed);
    retried = sum (fun t -> t.c_retried);
    cache_hits = sum (fun t -> t.c_cache_hits);
    wall_s;
    throughput_rps =
      (if wall_s > 0.0 then float_of_int total /. wall_s else 0.0);
    p50_ms = pct 0.50;
    p95_ms = pct 0.95;
    p99_ms = pct 0.99;
    latency_hist;
    overflow }

let report_json r =
  J.Obj
    [ ("total", J.Int r.total);
      ("ok", J.Int r.ok);
      ("failed", J.Int r.failed);
      ("retried", J.Int r.retried);
      ("cache_hits", J.Int r.cache_hits);
      ("wall_s", J.Float r.wall_s);
      ("throughput_rps", J.Float r.throughput_rps);
      ("p50_ms", J.Float r.p50_ms);
      ("p95_ms", J.Float r.p95_ms);
      ("p99_ms", J.Float r.p99_ms);
      ("latency_hist",
       J.Arr
         (List.map
            (fun (le, c) ->
              J.Obj [ ("le_s", J.Float le); ("count", J.Int c) ])
            r.latency_hist));
      ("overflow", J.Int r.overflow) ]
