(* The serve-* workloads' side of the socket: start and stop a separate
   [ogc serve --jobs 1], talk NDJSON over one Unix-socket connection,
   and read its stats, metrics and trace ops. *)

module J = Ogc_json.Json
module Protocol = Ogc_server.Protocol
open Util

type server = {
  pid : int;
  sock : string;
  mutable conn : (Unix.file_descr * in_channel * out_channel) option;
}

let live : server list ref = ref []

(* One request line, one response line: the closed loop. *)
let call s line =
  match s.conn with
  | None -> failwith "not connected"
  | Some (_, ic, oc) ->
    output_string oc line;
    output_char oc '\n';
    flush oc;
    input_line ic

(* SIGINT drains the server; it is killed if it has not exited within
   10 s.  Either way it is reaped before [stop] returns. *)
let stop s =
  (match s.conn with
  | Some (fd, _, _) -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  s.conn <- None;
  (try Unix.kill s.pid Sys.sigint with Unix.Unix_error _ -> ());
  let t0 = now_ns () in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when secs_since t0 < 10.0 ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  (try Unix.unlink s.sock with Unix.Unix_error _ -> ());
  live := List.filter (fun x -> x != s) !live

let () = at_exit (fun () -> List.iter stop !live)

(* Starts [ogc serve] on a Unix socket under [tmp] and connects once it
   answers a ping.  [cache] is sized by the caller to hold every distinct
   request of the run, so replays hit and fresh lines miss whatever the
   run length. *)
let start ~ogc ~tmp ~cache ~traced k =
  let sock =
    Filename.concat tmp (Printf.sprintf "s%d-%d.sock" (Unix.getpid ()) k)
  in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let args =
    [ ogc; "serve"; "--socket"; sock; "--jobs"; "1"; "--cache-size";
      string_of_int cache; "--quiet" ]
    @ if traced then [ "--trace" ] else []
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process ogc (Array.of_list args) null null Unix.stderr
  in
  Unix.close null;
  let s = { pid; sock; conn = None } in
  live := s :: !live;
  let t0 = now_ns () in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error _ when secs_since t0 < 20.0 ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "ogc serve exited during start-up");
      Unix.sleepf 0.002;
      connect ()
  in
  let fd = connect () in
  s.conn <-
    Some (fd, Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd);
  let pong = J.of_string (call s {|{"op":"ping"}|}) in
  if J.member "status" pong <> J.Str "ok" then
    failwith "ogc serve: ping failed";
  s

(* --- ops and answers ------------------------------------------------------ *)

let op_line op =
  Printf.sprintf {|{"proto":%d,"op":"%s"}|} Protocol.proto_version op

let result_of line = J.member "result" (J.of_string line)
let stats s = result_of (call s (op_line "stats"))
let trace_doc s = result_of (call s (op_line "trace"))

(* A number inside a JSON object, 0 where absent. *)
let stat_num path j =
  match List.fold_left (fun j k -> J.member k j) j path with
  | J.Int i -> float_of_int i
  | J.Float f -> f
  | _ -> 0.0

(* p50, in ms, of a seconds histogram in the [metrics] op's JSON. *)
let metrics_p50_ms s name =
  let series =
    J.get_list "result" (J.of_string (call s (op_line "metrics")))
  in
  match List.find_opt (fun e -> J.member "name" e = J.Str name) series with
  | None -> 0.0
  | Some e ->
    let buckets = J.get_list "buckets" (J.member "value" e) in
    let les =
      List.filter_map
        (fun b -> match J.member "le" b with J.Float f -> Some f | _ -> None)
        buckets
    in
    (* cumulative counts, +Inf last, back to per-bucket counts *)
    let cum = Array.of_list (List.map (stat_num [ "n" ]) buckets) in
    let after =
      Array.mapi (fun i c -> if i = 0 then c else c -. cum.(i - 1)) cum
    in
    if cum.(Array.length cum - 1) <= 0.0 then 0.0
    else
      1000.0
      *. Ogc_obs.Metrics.percentile_of_counts ~buckets:(Array.of_list les)
           ~before:(Array.make (Array.length after) 0.0)
           ~after 0.5

let checksum_of line =
  match J.member "checksum" (result_of line) with
  | J.Str c -> Int64.of_string c
  | _ -> failwith "result has no checksum"

let energy_of line =
  let r = result_of line in
  J.get_float "energy_nj" r /. J.get_float "baseline_energy_nj" r

let member_str k line =
  match J.member k (J.of_string line) with J.Str c -> c | _ -> "-"

let cache_of = member_str "cache"
let status_of = member_str "status"

(* Fails [o] unless the answer is ok and of the expected cache class. *)
let expect o ~what line cls =
  if status_of line <> "ok" then fail o "%s: status %s" what (status_of line)
  else if cache_of line <> cls then
    fail o "%s: cache %s, expected %s" what (cache_of line) cls

(* --- replay timings ------------------------------------------------------- *)

let median_us f xs =
  median (Array.map (fun x -> snd (time (fun () -> f x)) *. 1e6) xs)

let median_ms f xs =
  median (Array.map (fun x -> snd (time (fun () -> f x)) *. 1e3) xs)

(* Miss lines (serve-mix) and sessions (serve-online) replayed in-process
   for the layer shares. *)
let replayed = 40
