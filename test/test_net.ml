(* Socket-layer tests: the one ADDR grammar, host-name resolution on both
   ends of a TCP connection, the request-line bound at its boundary, the
   `ogc` client commands over TCP to a host name and past the bound,
   `ogc serve` riding out descriptor exhaustion, `ogc router` refusing
   duplicate shard names and `ogc trace --out` tracing the service's VRS
   request; and the local subcommands loading and building programs
   exactly as the service does. *)

module J = Ogc_json.Json
module Net = Ogc_net.Net
module Server = Ogc_server.Server
module Protocol = Ogc_server.Protocol

let () = Ogc_obs.Log.set_level Ogc_obs.Log.Error

let addr =
  Alcotest.testable
    (fun ppf -> function
      | Net.Unix_sock p -> Format.fprintf ppf "Unix_sock %S" p
      | Net.Tcp (h, p) -> Format.fprintf ppf "Tcp (%S, %d)" h p)
    ( = )

let test_addr_grammar () =
  List.iter
    (fun (spec, want) ->
      Alcotest.check addr spec want (Net.parse_addr spec))
    [ ("/tmp/ogc.sock", Net.Unix_sock "/tmp/ogc.sock");
      ("ogc.sock", Net.Unix_sock "ogc.sock");
      ("localhost:7000", Net.Tcp ("localhost", 7000));
      ("10.0.0.2:80", Net.Tcp ("10.0.0.2", 80));
      (":7000", Net.Tcp ("127.0.0.1", 7000));
      ("foo:bar", Net.Unix_sock "foo:bar");
      ("./dir:80", Net.Unix_sock "./dir:80");
      ("host:70000", Net.Unix_sock "host:70000") ];
  List.iter
    (fun a ->
      Alcotest.check addr "printer round-trips" a
        (Net.parse_addr (Net.addr_string a)))
    [ Net.Tcp ("localhost", 7000); Net.Unix_sock "/tmp/ogc.sock" ]

(* A port nothing listens on yet: bind an ephemeral one and release it. *)
let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, p) -> p
  | Unix.ADDR_UNIX _ -> assert false

let with_listener a handle f =
  let l = Net.listen ~name:"test" a in
  let th = Thread.create (fun () -> Net.run l ~on_drain:ignore handle) () in
  Fun.protect
    ~finally:(fun () ->
      Net.stop l;
      Thread.join th)
    f

let test_connect_host_name () =
  let a = Net.Tcp ("localhost", free_port ()) in
  with_listener a
    (fun line -> "echo " ^ line)
    (fun () ->
      let c = Net.connect a in
      Fun.protect ~finally:(fun () -> Net.close c) @@ fun () ->
      Alcotest.(check string) "round trip" "echo hi" (Net.call c "hi");
      Alcotest.(check string) "second line" "echo there" (Net.call c "there"))

let test_line_at_the_limit () =
  let path = Printf.sprintf "/tmp/ogc-net-%d.sock" (Unix.getpid ()) in
  with_listener (Net.Unix_sock path)
    (fun line -> string_of_int (String.length line))
    (fun () ->
      let c = Net.connect (Net.Unix_sock path) in
      Fun.protect ~finally:(fun () -> Net.close c) @@ fun () ->
      Alcotest.(check string) "a line of exactly max_line_bytes is served"
        (string_of_int Net.max_line_bytes)
        (Net.call c (String.make Net.max_line_bytes 'x')))

(* --- the CLI over TCP ----------------------------------------------------- *)

(* dune builds it next to this test's directory (see the [deps] field). *)
let ogc =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/ogc.exe"

(* Exit code and stdout+stderr of one [ogc] run. *)
let run_ogc args =
  let out = Filename.temp_file "ogc-net" ".out" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  let code =
    Sys.command (Filename.quote_command ogc args ~stdout:out ~stderr:out)
  in
  (code, In_channel.with_open_bin out In_channel.input_all)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_cli_tcp_host_name () =
  let port = free_port () in
  let spec = Printf.sprintf "localhost:%d" port in
  let code, out = run_ogc [ "submit"; "--tcp"; spec; "--ping" ] in
  Alcotest.(check int) "nothing listening: exit 1" 1 code;
  Alcotest.(check bool) ("refused, not unresolved: " ^ out) true
    (contains out "cannot reach the server: Connection refused");
  let t =
    Server.create
      { (Server.default_config (Net.Tcp ("localhost", port))) with
        jobs = Some 1 }
  in
  let th = Thread.create Server.run t in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Thread.join th)
  @@ fun () ->
  let code, out = run_ogc [ "submit"; "--tcp"; spec; "--ping"; "--raw" ] in
  Alcotest.(check int) ("submit --tcp exit: " ^ out) 0 code;
  Alcotest.(check bool) "ping answered" true (contains out {|"status":"ok"|});
  let trace = Filename.temp_file "ogc-net" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove trace) @@ fun () ->
  let code, out = run_ogc [ "trace"; "--fleet"; spec; "--out"; trace ] in
  Alcotest.(check int) ("trace --fleet exit: " ^ out) 0 code;
  let doc = J.of_string (In_channel.with_open_bin trace In_channel.input_all) in
  match J.member "traceEvents" doc with
  | J.Arr _ -> ()
  | _ -> Alcotest.fail "trace --fleet wrote no traceEvents"

let test_cli_tcp_rejects_non_tcp () =
  List.iter
    (fun spec ->
      let code, out = run_ogc [ "submit"; "--tcp"; spec; "--ping" ] in
      Alcotest.(check int) (spec ^ " is a usage error") 124 code;
      Alcotest.(check bool) ("names the grammar: " ^ out) true
        (contains out "expected HOST:PORT"))
    [ "foo"; "foo:bar"; "/tmp/x.sock"; "./dir:80" ]

(* The server answers an over-long request and closes before reading all
   of it; submit's write fails, and it must still print that answer. *)
let test_cli_oversized_request () =
  let path = Printf.sprintf "/tmp/ogc-net-big-%d.sock" (Unix.getpid ()) in
  let src = Filename.temp_file "ogc-net" ".mc" in
  Fun.protect ~finally:(fun () -> Sys.remove src) @@ fun () ->
  Out_channel.with_open_bin src (fun oc ->
      output_string oc "int main() { return 0; }\n// ";
      output_string oc (String.make (Net.max_line_bytes + 1) 'x'));
  let t =
    Server.create
      { (Server.default_config (Net.Unix_sock path)) with jobs = Some 1 }
  in
  let th = Thread.create Server.run t in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Thread.join th)
  @@ fun () ->
  let code, out = run_ogc [ "submit"; "--socket"; path; src; "--raw" ] in
  Alcotest.(check int) ("exit: " ^ out) 1 code;
  Alcotest.(check bool) ("prints the limit: " ^ out) true
    (contains out (Printf.sprintf {|"max_line_bytes":%d|} Net.max_line_bytes))

(* [ogc trace --out] traces the analysis the service runs for the
   request [ogc sim --optimize vrs --policy sw] builds: the same energy,
   and the VRS pass once. *)
let test_trace_out_is_the_service_vrs () =
  let zerospec = "../examples/zerospec.mc" in
  let energy_of prefix out =
    match
      List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' out)
    with
    | Some line ->
      Scanf.sscanf
        (String.sub line (String.length prefix)
           (String.length line - String.length prefix))
        " %d nJ" Fun.id
    | None -> Alcotest.failf "no %S line in %s" prefix out
  in
  let code, sim =
    run_ogc
      [ "sim"; zerospec; "--optimize"; "vrs"; "--policy"; "sw"; "--input";
        "ref" ]
  in
  Alcotest.(check int) ("sim exit: " ^ sim) 0 code;
  let trace = Filename.temp_file "ogc-net" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove trace) @@ fun () ->
  let code, out =
    run_ogc [ "trace"; "--out"; trace; zerospec; "--input"; "ref" ]
  in
  Alcotest.(check int) ("trace exit: " ^ out) 0 code;
  Alcotest.(check int) ("energy: " ^ out ^ " vs " ^ sim)
    (energy_of "energy       :" sim) (energy_of "energy:" out);
  let doc = J.of_string (In_channel.with_open_bin trace In_channel.input_all) in
  let vrs_spans =
    match J.member "traceEvents" doc with
    | J.Arr evs ->
      List.length
        (List.filter
           (fun e ->
             J.member "name" e = J.Str "pass:vrs" && J.member "ph" e = J.Str "B")
           evs)
    | _ -> Alcotest.fail "trace --out wrote no traceEvents"
  in
  Alcotest.(check int) "one pass:vrs span" 1 vrs_spans

(* Both ways of naming one shard twice: explicitly, and an explicit name
   equal to a bare ADDR's positional one.  The check runs before the
   listener binds. *)
let test_router_duplicate_shards () =
  let path = Printf.sprintf "/tmp/ogc-net-dup-%d.sock" (Unix.getpid ()) in
  List.iter
    (fun (shards, name) ->
      let code, out =
        run_ogc
          ([ "router"; "--socket"; path ]
          @ List.concat_map (fun s -> [ "--shard"; s ]) shards)
      in
      Alcotest.(check int) ("usage error: " ^ out) 1 code;
      Alcotest.(check bool) ("names the shard: " ^ out) true
        (contains out (Printf.sprintf "error: duplicate shard name %S" name));
      Alcotest.(check bool) "no socket left" false (Sys.file_exists path))
    [ ([ "a=/tmp/ogc-net-x.sock"; "a=/tmp/ogc-net-y.sock" ], "a");
      ([ "/tmp/ogc-net-x.sock"; "shard0=/tmp/ogc-net-y.sock" ], "shard0") ]

(* --- one loader ------------------------------------------------------------ *)

let dotprod = "../examples/dotprod.mc"

(* dotprod declares [input_scale]: the CLI scales it like a workload. *)
let test_run_scales_input () =
  List.iter
    (fun (input, steps) ->
      let code, out = run_ogc [ "run"; dotprod; "--input"; input ] in
      Alcotest.(check int) ("exit: " ^ out) 0 code;
      Alcotest.(check bool) (input ^ ": " ^ out) true
        (contains out (Printf.sprintf "dynamic instructions: %d\n" steps)))
    [ ("train", 31260); ("ref", 93724) ]

let test_sim_vrs_without_input_scale () =
  let src = Filename.temp_file "ogc-net" ".mc" in
  Fun.protect ~finally:(fun () -> Sys.remove src) @@ fun () ->
  Out_channel.with_open_bin src (fun oc ->
      output_string oc
        "int main() { int s = 0; for (int i = 0; i < 50; i++) { s += i; } \
         emit(s); return 0; }\n");
  let code, out = run_ogc [ "sim"; src; "--optimize"; "vrs" ] in
  Alcotest.(check int) ("exit: " ^ out) 0 code;
  Alcotest.(check bool) ("simulated: " ^ out) true
    (contains out "instructions : ")

(* [ogc sim] simulates the binary [Protocol.build] makes for the same
   request, so its report agrees with the service's answer. *)
let test_sim_matches_service () =
  let src = In_channel.with_open_bin dotprod In_channel.input_all in
  List.iter
    (fun (input, pass) ->
      let what = input ^ "/" ^ pass in
      let req =
        match
          Protocol.op_of_json
            (J.Obj
               [ ("source", J.Str src); ("pass", J.Str pass);
                 ("policy", J.Str "sw"); ("input", J.Str input) ])
        with
        | Protocol.Analyze r -> r
        | _ -> Alcotest.fail "not an analyze request"
      in
      let r = Protocol.analyze req in
      let code, out =
        run_ogc
          [ "sim"; dotprod; "--policy"; "sw"; "--input"; input; "--optimize";
            pass ]
      in
      Alcotest.(check int) (what ^ " exit: " ^ out) 0 code;
      List.iter
        (fun line ->
          Alcotest.(check bool) (what ^ ": " ^ line ^ " in " ^ out) true
            (contains out (line ^ "\n")))
        [ Printf.sprintf "instructions : %d" (J.get_int "instructions" r);
          Printf.sprintf "cycles       : %d (IPC %.2f)" (J.get_int "cycles" r)
            (J.get_float "ipc" r);
          Printf.sprintf "energy       : %.0f nJ" (J.get_float "energy_nj" r) ])
    [ ("train", "vrp"); ("train", "vrs"); ("ref", "vrp"); ("ref", "vrs") ]

(* A saved program that parses but does not validate is a bad program
   like any other, not an uncaught exception. *)
let test_invalid_asm () =
  let s = Filename.temp_file "ogc-net" ".s" in
  Fun.protect ~finally:(fun () -> Sys.remove s) @@ fun () ->
  Out_channel.with_open_bin s (fun oc ->
      output_string oc
        "func main(0) frame=0\nL0:\n  [   1] li #7, r0\n  [   1] ret\n");
  let code, out = run_ogc [ "run"; s ] in
  Alcotest.(check int) ("exit: " ^ out) 1 code;
  Alcotest.(check bool) ("names the fault: " ^ out) true
    (contains out "error: invalid program: main: duplicate instruction id 1")

(* VRS always trains on the train input. *)
let test_vrs_has_no_input () =
  let code, out = run_ogc [ "vrs"; dotprod; "--input"; "ref" ] in
  Alcotest.(check int) ("usage error: " ^ out) 124 code

(* --- descriptor exhaustion ---------------------------------------------- *)

(* Under a 20-descriptor limit, sixteen idle connections leave the
   daemon none for its next accept.  It must stay up, answer a fresh
   connection once they close, and still drain on SIGINT.  Its log holds
   one [accept failed] line for the whole episode (Linux fails [accept]
   at once with no connection queued, so an unbounded log would grow by
   ten lines a second) and, once an accept succeeds again, one [accept
   recovered] line counting the failures. *)
let test_accept_out_of_descriptors () =
  let path = Printf.sprintf "/tmp/ogc-net-emfile-%d.sock" (Unix.getpid ()) in
  let log = Filename.temp_file "ogc-net" ".log" in
  Fun.protect ~finally:(fun () -> Sys.remove log) @@ fun () ->
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close err) @@ fun () ->
    Unix.create_process "/bin/sh"
      [| "sh"; "-c";
         Printf.sprintf "ulimit -n 20; exec %s serve --socket %s --jobs 1"
           (Filename.quote ogc) (Filename.quote path) |]
      Unix.stdin err err
  in
  let status = ref None in
  let poll () =
    if !status = None then
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _, st -> status := Some st
  in
  let logged () = In_channel.with_open_bin log In_channel.input_all in
  let lines_with msg =
    String.split_on_char '\n' (logged ())
    |> List.filter (fun l -> contains l ("ogc-serve: " ^ msg))
  in
  Fun.protect
    ~finally:(fun () ->
      poll ();
      if !status = None then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid)
      end;
      if Sys.file_exists path then Sys.remove path)
  @@ fun () ->
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception e ->
      Unix.close fd;
      raise e
  in
  let rec first_connect tries =
    match connect () with
    | fd -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when tries > 0 ->
      Thread.delay 0.05;
      first_connect (tries - 1)
  in
  let idle = ref [ first_connect 200 ] in
  for _ = 2 to 16 do
    idle := connect () :: !idle
  done;
  Thread.delay 1.0;
  poll ();
  Alcotest.(check bool) ("alive with 16 idle connections: " ^ logged ()) true
    (!status = None);
  Alcotest.(check int) ("one accept failed line: " ^ logged ()) 1
    (List.length (lines_with "accept failed"));
  List.iter Unix.close !idle;
  let t0 = Unix.gettimeofday () in
  let answer =
    let fd = connect () in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
    let line = {|{"op":"ping"}|} ^ "\n" in
    ignore (Unix.write_substring fd line 0 (String.length line));
    let buf = Bytes.create 4096 in
    Bytes.sub_string buf 0 (Unix.read fd buf 0 4096)
  in
  Alcotest.(check bool) ("fresh connection answers ping: " ^ answer) true
    (contains answer {|"status":"ok"|});
  Alcotest.(check bool) "within 5 s" true (Unix.gettimeofday () -. t0 < 5.0);
  (match lines_with "accept recovered" with
  | [ line ] ->
    Alcotest.(check bool) ("recovery counts the failures: " ^ line) true
      (J.get_int "failures" (J.of_string line) >= 1)
  | lines ->
    Alcotest.failf "expected one accept recovered line, got %d: %s"
      (List.length lines) (logged ()));
  Unix.kill pid Sys.sigint;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while !status = None && Unix.gettimeofday () < deadline do
    Thread.delay 0.05;
    poll ()
  done;
  (match !status with
  | Some (Unix.WEXITED 0) -> ()
  | _ -> Alcotest.failf "no clean exit after SIGINT: %s" (logged ()));
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path);
  Alcotest.(check int) ("still one accept failed line: " ^ logged ()) 1
    (List.length (lines_with "accept failed"))

let () =
  Alcotest.run "net"
    [ ("addr",
       [ Alcotest.test_case "ADDR grammar" `Quick test_addr_grammar;
         Alcotest.test_case "connect resolves a host name" `Quick
           test_connect_host_name ]);
      ("listener",
       [ Alcotest.test_case "line at the limit is served" `Quick
           test_line_at_the_limit ]);
      ("cli",
       [ Alcotest.test_case "submit and trace --fleet reach a host name"
           `Quick test_cli_tcp_host_name;
         Alcotest.test_case "--tcp rejects non-TCP addresses" `Quick
           test_cli_tcp_rejects_non_tcp;
         Alcotest.test_case "submit prints the answer to an oversized request"
           `Quick test_cli_oversized_request;
         Alcotest.test_case "serve survives running out of descriptors"
           `Quick test_accept_out_of_descriptors;
         Alcotest.test_case "router rejects duplicate shard names" `Quick
           test_router_duplicate_shards;
         Alcotest.test_case "trace --out traces the service's VRS request"
           `Quick test_trace_out_is_the_service_vrs ]);
      ("loader",
       [ Alcotest.test_case "run scales a file's input_scale" `Quick
           test_run_scales_input;
         Alcotest.test_case "sim --optimize vrs without input_scale" `Quick
           test_sim_vrs_without_input_scale;
         Alcotest.test_case "sim matches the service's analyze" `Quick
           test_sim_matches_service;
         Alcotest.test_case "vrs takes no --input" `Quick
           test_vrs_has_no_input;
         Alcotest.test_case "an invalid .s is an error" `Quick
           test_invalid_asm ]) ]
