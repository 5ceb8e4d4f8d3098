module J = Ogc_json.Json
module Metrics = Ogc_obs.Metrics
module Flight = Ogc_obs.Flight
module Clock = Ogc_obs.Clock

let lat_window = 1024

type t = {
  name : string;
  m : Mutex.t;  (* guards the mutable fields below *)
  mutable requests : int;
  mutable errors : int;
  latencies : float array;  (* ring of the last [lat_window] latencies, ms *)
  mutable lat_n : int;
}

let create ~name =
  { name;
    m = Mutex.create ();
    requests = 0;
    errors = 0;
    latencies = Array.make lat_window 0.0;
    lat_n = 0 }

let envelope ?id ~status extra =
  J.to_string ~indent:false
    (J.Obj
       (("version", J.Str Version.version)
        :: (match id with Some s -> [ ("id", J.Str s) ] | None -> [])
        @ (("status", J.Str status) :: extra)))

(* --- counters and the latency window ------------------------------------ *)

let count_error t = Mutex.protect t.m (fun () -> t.errors <- t.errors + 1)
let requests t = Mutex.protect t.m (fun () -> t.requests)
let errors t = Mutex.protect t.m (fun () -> t.errors)

let record_latency t t0 =
  let ms = Clock.since t0 *. 1000.0 in
  Mutex.protect t.m (fun () ->
      t.latencies.(t.lat_n mod lat_window) <- ms;
      t.lat_n <- t.lat_n + 1;
      t.lat_n)

(* The number of latencies recorded so far, and the window sorted. *)
let window t =
  let n, lats =
    Mutex.protect t.m (fun () ->
        (t.lat_n, Array.sub t.latencies 0 (min t.lat_n lat_window)))
  in
  Array.sort compare lats;
  (n, lats)

let percentile_ms t q = Metrics.percentile_sorted (snd (window t)) q

let latency_json t =
  let n, lats = window t in
  J.Obj
    [ ("count", J.Int n);
      ("p50", J.Float (Metrics.percentile_sorted lats 0.50));
      ("p95", J.Float (Metrics.percentile_sorted lats 0.95)) ]

(* --- the flight record --------------------------------------------------- *)

type facts = {
  mutable key : string;
  mutable trace : string option;
  mutable queue_ms : float;
  mutable hedged : bool;
  mutable cache : string;
}

let record t ~op ?id facts ~outcome ~ms =
  Flight.record
    { Flight.f_id = id;
      f_trace = facts.trace;
      f_key = facts.key;
      f_shard = t.name;
      f_op = op;
      f_queue_ms = facts.queue_ms;
      f_hedged = facts.hedged;
      f_cache = facts.cache;
      f_outcome = outcome;
      f_ms = ms;
      f_ts = Unix.gettimeofday () }

(* The reply's status without a full JSON parse: the envelope always
   renders ["status"] early, and the flight record must not make the
   router reparse every forwarded reply. *)
let status_of_line line =
  let marker = {|"status":"|} in
  let m = String.length marker in
  let rec from i =
    if i + m > String.length line then "unknown"
    else if String.sub line i m <> marker then from (i + 1)
    else
      match String.index_from_opt line (i + m) '"' with
      | Some j -> String.sub line (i + m) (j - i - m)
      | None -> "unknown"
  in
  from 0

(* --- request lines ------------------------------------------------------- *)

type request = {
  arrived : float;
  line : string;
  json : J.t;
  id : string option;
  op : Protocol.op;
  facts : facts;
}

let op_name = function
  | Protocol.Analyze _ -> "analyze"
  | Protocol.Profile _ -> "profile"
  | Protocol.Put _ -> "put"
  | Protocol.Ping -> "ping"
  | Protocol.Stats -> "stats"
  | Protocol.Metrics -> "metrics"
  | Protocol.Trace -> "trace"
  | Protocol.Flight -> "flight"

let error_message = function
  | J.Parse_error msg | Failure msg -> msg
  | e -> Printexc.to_string e

let handle_line t ~stats ~trace ?(finish = fun _ _ -> ()) handler line =
  let t0 = Clock.now () in
  Mutex.protect t.m (fun () -> t.requests <- t.requests + 1);
  let facts =
    { key = ""; trace = None; queue_ms = 0.0; hedged = false; cache = "" }
  in
  let fail ?id status extra =
    count_error t;
    envelope ?id ~status extra
  in
  let id, op, reply =
    match J.of_string line with
    | exception J.Parse_error msg ->
      (None, "invalid", fail "error" [ ("error", J.Str msg) ])
    | json -> (
      let id = match J.member "id" json with J.Str s -> Some s | _ -> None in
      match Protocol.op_of_json json with
      | exception J.Parse_error msg ->
        (id, "invalid", fail ?id "error" [ ("error", J.Str msg) ])
      | exception Protocol.Version_mismatch got ->
        ( id,
          "invalid",
          fail ?id "unsupported_protocol"
            [ ("error", J.Str "protocol version mismatch");
              ("expected", J.Int Protocol.proto_version);
              ("got", J.Int got) ] )
      | op -> (
        let name = op_name op in
        let local extra =
          envelope ?id ~status:"ok" (("op", J.Str name) :: extra)
        in
        let answer () =
          match op with
          | Protocol.Ping -> local []
          | Protocol.Stats -> local [ ("result", stats ()) ]
          | Protocol.Metrics ->
            local
              [ ("exposition", J.Str (Metrics.to_prometheus ()));
                ("result", Metrics.to_json ()) ]
          | Protocol.Trace ->
            local [ ("process", J.Str t.name); ("result", trace ()) ]
          | Protocol.Flight -> local [ ("result", Flight.to_json_all ()) ]
          | Protocol.Analyze _ | Protocol.Profile _ | Protocol.Put _ ->
            handler { arrived = t0; line; json; id; op; facts }
        in
        (* Exactly one reply per line: whatever escapes is an error
           reply, not a dropped connection. *)
        match answer () with
        | reply -> (id, name, reply)
        | exception e ->
          (id, name, fail ?id "error" [ ("error", J.Str (error_message e)) ])))
  in
  let dt = Clock.since t0 in
  record t ~op ?id facts ~outcome:(status_of_line reply) ~ms:(dt *. 1000.0);
  finish op dt;
  reply

(* SIGUSR1 dumps the flight recorder as NDJSON to stderr: the incident
   tool for "what were the last few thousand requests?" without
   restarting or reconfiguring anything. *)
let install_sigusr1 () =
  try
    Sys.set_signal Sys.sigusr1
      (Sys.Signal_handle
         (fun _ ->
           Flight.dump stderr;
           flush stderr))
  with Invalid_argument _ -> ()
