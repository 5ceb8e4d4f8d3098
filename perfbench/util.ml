(* Shared benchmark plumbing: the one clock, order statistics, the
   benchmark-side span recorder behind the traced run, peak-RSS probes
   and counter reads from the lib/obs registry. *)

module J = Ogc_json.Json
module Metrics = Ogc_obs.Metrics

(* --- the clock ------------------------------------------------------------ *)

(* Every benchmark timing reads this CLOCK_MONOTONIC source; nothing here
   reads the wall clock. *)
let now_ns () = Monotonic_clock.now ()
let secs_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, secs_since t0)

(* --- order statistics ----------------------------------------------------- *)

(* Linear interpolation between closest ranks (the "type 7" estimator). *)
let quantile xs q =
  match Array.length xs with
  | 0 -> nan
  | n ->
    let s = Array.copy xs in
    Array.sort compare s;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1)
    else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median xs = quantile xs 0.5
let sum xs = Array.fold_left ( +. ) 0.0 xs

let geomean = function
  | [] -> nan
  | xs ->
    exp
      (List.fold_left (fun a x -> a +. log x) 0.0 xs
      /. float_of_int (List.length xs))

(* --- inputs --------------------------------------------------------------- *)

let digest_strings parts =
  Digest.to_hex (Digest.string (String.concat "\x00" parts))

let shuffle rs a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* --- memory --------------------------------------------------------------- *)

(* VmHWM (peak resident set) of a process, in MB; [pid] 0 is this one. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status"
    else Printf.sprintf "/proc/%d/status" pid
  in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | l when String.starts_with ~prefix:"VmHWM:" l ->
        Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
      | _ -> scan ()
    in
    let v = scan () in
    close_in ic;
    v

(* --- lib/obs counters ----------------------------------------------------- *)

(* Sum of every label variant of a counter in this process's registry. *)
let counter_total name =
  List.fold_left
    (fun acc (n, _, v) ->
      match v with
      | J.Float f when n = name -> acc +. f
      | J.Int i when n = name -> acc +. float_of_int i
      | _ -> acc)
    0.0 (Metrics.snapshot ())

(* --- benchmark-side spans ------------------------------------------------- *)

(* The traced run wraps each public call it replays in a span named after
   the call and tagged with the layer (lib/ module) it enters.  Replayed
   calls never nest, so a span's self time is its duration.  Events stay
   in memory until the run writes its trace_event file. *)
module Spans = struct
  let events : J.t list ref = ref []
  let origin = ref 0L

  let reset () =
    events := [];
    origin := now_ns ()

  let ev ph name layer t =
    J.Obj
      [ ("name", J.Str name); ("cat", J.Str layer); ("ph", J.Str ph);
        ("ts", J.Float (Int64.to_float (Int64.sub t !origin) /. 1000.0));
        ("pid", J.Int 1); ("tid", J.Int 1) ]

  (* The call's result and its seconds. *)
  let with_ ~layer name f =
    let t0 = now_ns () in
    let r = f () in
    let t1 = now_ns () in
    events := ev "E" name layer t1 :: ev "B" name layer t0 :: !events;
    (r, Int64.to_float (Int64.sub t1 t0) *. 1e-9)

  let run ~layer name f = fst (with_ ~layer name f)

  let document () =
    let meta =
      J.Obj
        [ ("name", J.Str "thread_name"); ("ph", J.Str "M"); ("pid", J.Int 1);
          ("tid", J.Int 1);
          ("args", J.Obj [ ("name", J.Str "perfbench replay") ]) ]
    in
    J.Obj
      [ ("traceEvents", J.Arr (meta :: List.rev !events));
        ("displayTimeUnit", J.Str "ms"); ("dropped_events", J.Int 0) ]
end

(* The layers a replay may attribute time to: lib/ modules, in pipeline
   order. *)
let layers =
  [ "minic"; "regalloc"; "core"; "ir"; "pass"; "cpu"; "harness"; "exec";
    "json"; "server" ]

(* Per-layer shares of the op time plus their sum, [trace.coverage]. *)
let share_metrics shares =
  List.map (fun (l, v) -> (l ^ ".share", v)) shares
  @ [ ("trace.coverage", List.fold_left (fun a (_, v) -> a +. v) 0.0 shares) ]

(* How much slower the traced pass ran, as a drop in ops per second. *)
let overhead_pct ~timed_s ~traced_s = 100.0 *. (1.0 -. (timed_s /. traced_s))

(* Float tables that read 0 where nothing was added. *)
let find0 tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k)
let add_into tbl k v = Hashtbl.replace tbl k (v +. find0 tbl k)

(* --- what a workload run hands back --------------------------------------- *)

type op = { cls : string; mutable secs : float; mutable ok : bool }

type result = {
  setups : float array;  (** seconds of each set-up repetition *)
  timed_s : float;  (** seconds of the timed phase *)
  ops : op array;  (** the timed ops, in list order *)
  main : string;  (** the class [op_p50_ms] reports *)
  failures : string list;  (** what failed, first few *)
  energy : float list;
      (** modelled energy / ungated baseline, per gated result *)
  rss_mb : float;  (** VmHWM of the process under test *)
  digest : string;  (** digest of every input of the run *)
  layer : (string * float) list;  (** per-layer metrics (traced run) *)
  samples : (string * int) list;
      (** timed calls behind each per-layer timing *)
  exact : string list;  (** names in [layer] that repeat exactly *)
  docs : (string * J.t) list;  (** trace_event documents (traced run) *)
}

(* Failure bookkeeping shared by the workloads: every failed op is
   counted, the first few messages are kept for the report. *)
let failures = ref []
let nfail = ref 0

let fail (o : op) fmt =
  Printf.ksprintf
    (fun msg ->
      if o.ok then begin
        o.ok <- false;
        incr nfail;
        if List.length !failures < 8 then failures := msg :: !failures
      end)
    fmt

let failures_list () = List.rev !failures

(* Runs [setup] [n] times and keeps the last state (earlier ones are
   released by [release]). *)
let repeat_setup n ~setup ~release =
  let times = Array.make n 0.0 in
  let last = ref None in
  for i = 0 to n - 1 do
    Option.iter release !last;
    let st, dt = time setup in
    times.(i) <- dt;
    last := Some st
  done;
  (Option.get !last, times)

(* The timed phase: every op of the list runs to completion, in order,
   and only [run] is on the clock; [check] inspects its output right
   after, off the clock.  The phase lasts the sum of the op times. *)
let timed_phase items ~cls ~run ~check =
  let ops =
    Array.map
      (fun it ->
        let o = { cls = cls it; secs = 0.0; ok = true } in
        let t = now_ns () in
        (match run it with
        | out -> (
          o.secs <- secs_since t;
          try check o it out
          with e -> fail o "%s check: %s" o.cls (Printexc.to_string e))
        | exception e ->
          o.secs <- secs_since t;
          fail o "%s: %s" o.cls (Printexc.to_string e));
        o)
      items
  in
  (ops, Array.fold_left (fun a o -> a +. o.secs) 0.0 ops)
