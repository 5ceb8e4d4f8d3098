module J = Ogc_json.Json
module Log = Ogc_obs.Log

(* --- addresses ------------------------------------------------------------ *)

type addr = Unix_sock of string | Tcp of string * int

let parse_addr spec =
  if String.contains spec '/' then Unix_sock spec
  else
    match String.rindex_opt spec ':' with
    | None -> Unix_sock spec
    | Some i -> (
      let port = String.sub spec (i + 1) (String.length spec - i - 1) in
      match int_of_string_opt port with
      | Some port when port >= 0 && port <= 0xFFFF ->
        Tcp ((if i = 0 then "127.0.0.1" else String.sub spec 0 i), port)
      | _ -> Unix_sock spec)

let addr_string = function
  | Unix_sock path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let sockaddr = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
    let ip =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match Unix.gethostbyname host with
        | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
          failwith ("cannot resolve " ^ host)
        | h -> h.Unix.h_addr_list.(0))
    in
    Unix.ADDR_INET (ip, port)

let socket_for sa = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0
let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

(* --- client side ---------------------------------------------------------- *)

let connect_timeout_ms = 1000
let backoff_ms = 50

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect ?(timeout_ms = connect_timeout_ms) addr =
  let sa = sockaddr addr in
  let fd = socket_for sa in
  try
    Unix.set_nonblock fd;
    (try Unix.connect fd sa with
    | Unix.Unix_error (Unix.EINPROGRESS, _, _) -> (
      match Unix.select [] [ fd ] [] (float_of_int timeout_ms /. 1000.0) with
      | _, [ _ ], _ -> (
        match Unix.getsockopt_error fd with
        | None -> ()
        | Some e -> raise (Unix.Unix_error (e, "connect", "")))
      | _ -> raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))));
    Unix.clear_nonblock fd;
    { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  with e ->
    close_fd fd;
    raise e

let call c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let close c = close_fd c.fd

let backoff rs attempt =
  let d = float_of_int backoff_ms /. 1000.0 *. (2.0 ** float_of_int attempt) in
  Float.min 2.0 (d *. (0.5 +. Random.State.float rs 1.0))

(* --- bounded line reader -------------------------------------------------- *)

let max_line_bytes = 16 * 1024 * 1024

exception Line_too_long

(* Block reads straight off the descriptor into [buf]; [pos, len) is the
   unread part.  [input_line] would buffer a newline-free stream without
   bound; this reader holds at most [max_line_bytes] of one line. *)
type reader = {
  rfd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;
  mutable len : int;
}

let reader fd = { rfd = fd; buf = Bytes.create 65536; pos = 0; len = 0 }

let rec index_nl buf i stop =
  if i >= stop then -1
  else if Bytes.get buf i = '\n' then i
  else index_nl buf (i + 1) stop

(* The next line without its newline, or [None] at end of input or on a
   read error.  A final unterminated line is returned before [None], as
   [input_line] does.  Raises [Line_too_long] past [max_line_bytes]. *)
let read_line r =
  let rec scan acc =
    if r.pos = r.len then refill acc
    else begin
      let nl = index_nl r.buf r.pos r.len in
      let n = (if nl < 0 then r.len else nl) - r.pos in
      let have = match acc with Some b -> Buffer.length b | None -> 0 in
      if have + n > max_line_bytes then raise Line_too_long;
      match acc with
      | None when nl >= 0 ->
        (* the common case: the whole line sits in one block *)
        let line = Bytes.sub_string r.buf r.pos n in
        r.pos <- nl + 1;
        Some line
      | _ ->
        let b = match acc with Some b -> b | None -> Buffer.create (2 * n) in
        Buffer.add_subbytes b r.buf r.pos n;
        if nl >= 0 then begin
          r.pos <- nl + 1;
          Some (Buffer.contents b)
        end
        else begin
          r.pos <- r.len;
          scan (Some b)
        end
    end
  and refill acc =
    match Unix.read r.rfd r.buf 0 (Bytes.length r.buf) with
    | 0 -> Option.map Buffer.contents acc
    | n ->
      r.pos <- 0;
      r.len <- n;
      scan acc
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill acc
    | exception Unix.Unix_error _ -> None
  in
  scan None

(* --- listener ------------------------------------------------------------- *)

type listener = {
  name : string;
  addr : addr;
  sa : Unix.sockaddr;  (* resolved once, so [stop] never resolves *)
  lfd : Unix.file_descr;
  stopping : bool Atomic.t;
  m : Mutex.t;  (* guards [live] *)
  drained : Condition.t;  (* signalled when [live] becomes empty *)
  mutable live : Unix.file_descr list;  (* open connections *)
}

let listen ~name addr =
  let sa = sockaddr addr in
  let lfd = socket_for sa in
  (try
     (match addr with
     | Unix_sock path ->
       (* A stale socket file from a previous run would make bind fail. *)
       if Sys.file_exists path then Unix.unlink path
     | Tcp _ -> Unix.setsockopt lfd Unix.SO_REUSEADDR true);
     Unix.bind lfd sa;
     Unix.listen lfd 64
   with e ->
     close_fd lfd;
     raise e);
  { name;
    addr;
    sa;
    lfd;
    stopping = Atomic.make false;
    m = Mutex.create ();
    drained = Condition.create ();
    live = [] }

let warn l what fields =
  Log.warn (l.name ^ ": " ^ what)
    ~fields:(("addr", J.Str (addr_string l.addr)) :: fields)

(* Close under the lock: the drain shuts connections down under the same
   lock, so it can never touch a descriptor number already reused. *)
let release l fd =
  Mutex.lock l.m;
  l.live <- List.filter (fun c -> c != fd) l.live;
  close_fd fd;
  if l.live = [] then Condition.broadcast l.drained;
  Mutex.unlock l.m

let too_long_reply =
  J.to_string ~indent:false
    (J.Obj
       [ ("status", J.Str "error");
         ("error",
          J.Str
            (Printf.sprintf "request line longer than %d bytes"
               max_line_bytes));
         ("max_line_bytes", J.Int max_line_bytes) ])

let serve_conn l handle fd =
  let r = reader fd in
  let oc = Unix.out_channel_of_descr fd in
  let reply s =
    output_string oc s;
    output_char oc '\n';
    flush oc
  in
  (try
     let rec loop () =
       match read_line r with
       | None -> ()
       | Some "" -> loop ()
       | Some line ->
         reply (handle (String.trim line));
         loop ()
     in
     loop ()
   with
  | Line_too_long -> (
    warn l "request line too long"
      [ ("max_line_bytes", J.Int max_line_bytes) ];
    try reply too_long_reply with Sys_error _ -> ())
  | e ->
    (* Typically the reply write: the client hung up before its answer
       was ready (SIGPIPE is ignored, so that is a [Sys_error]). *)
    warn l "connection dropped" [ ("error", J.Str (Printexc.to_string e)) ]);
  release l fd

let accept_pause_s = 0.1

let run l ~on_drain handle =
  ignore_sigpipe ();
  (* Failed accepts of the current out-of-descriptors episode: the first
     is logged, the rest only counted, and the count is logged once when
     an accept succeeds again or the listener stops. *)
  let failures = ref 0 in
  let recovered () =
    if !failures > 0 then begin
      warn l "accept recovered" [ ("failures", J.Int !failures) ];
      failures := 0
    end
  in
  while not (Atomic.get l.stopping) do
    match Unix.accept l.lfd with
    | fd, _ ->
      recovered ();
      if Atomic.get l.stopping then close_fd fd
      else begin
        Mutex.lock l.m;
        l.live <- fd :: l.live;
        Mutex.unlock l.m;
        (* The handle is dropped: [live] is what the drain waits on. *)
        try ignore (Thread.create (serve_conn l handle) fd)
        with e ->
          warn l "connection dropped"
            [ ("error", J.Str (Printexc.to_string e)) ];
          release l fd
      end
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (((Unix.EMFILE | Unix.ENFILE) as e), _, _) ->
      (* Out of descriptors: the connection stays queued until one is
         released.  Pause rather than spin; the loop then re-checks
         [stopping], because [stop]'s wake-up connect needs a descriptor
         too and may have failed.  Linux fails [accept] at once here
         even with no connection queued, so only an episode's first
         failure is logged. *)
      if !failures = 0 then
        warn l "accept failed" [ ("error", J.Str (Unix.error_message e)) ];
      incr failures;
      Thread.delay accept_pause_s
  done;
  recovered ();
  on_drain ();
  close_fd l.lfd;
  (match l.addr with
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  Mutex.lock l.m;
  List.iter
    (fun fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    l.live;
  while l.live <> [] do
    Condition.wait l.drained l.m
  done;
  Mutex.unlock l.m

let stop l =
  if not (Atomic.exchange l.stopping true) then
    try
      let fd = socket_for l.sa in
      (try Unix.connect fd l.sa with Unix.Unix_error _ -> ());
      Unix.close fd
    with _ -> ()
