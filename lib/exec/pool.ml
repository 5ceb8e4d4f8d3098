(* Pool telemetry (lib/obs).  The gauges update unconditionally so they
   cannot drift if metrics are toggled between a submit and the matching
   task start; counters and histograms are no-ops unless metrics are
   enabled. *)
module Metrics = Ogc_obs.Metrics
module Span = Ogc_obs.Span
module Clock = Ogc_obs.Clock

let m_queue_depth = Metrics.gauge "ogc_pool_queue_depth"
let m_busy = Metrics.gauge "ogc_pool_busy_workers"
let m_workers = Metrics.gauge "ogc_pool_workers"
let m_jobs_total = Metrics.counter "ogc_pool_jobs_total"
let m_job_wait = Metrics.histogram "ogc_pool_job_wait_seconds"
let m_job_run = Metrics.histogram "ogc_pool_job_run_seconds"

let clamp_jobs n = if n < 1 then 1 else if n > 64 then 64 else n

let jobs_from_env () =
  match Sys.getenv_opt "OGC_JOBS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | _ -> None)

let default_jobs () =
  match jobs_from_env () with
  | Some n -> clamp_jobs n
  | None -> clamp_jobs (Domain.recommended_domain_count ())

let resolve_jobs = function
  | Some n when n >= 1 -> clamp_jobs n
  | _ -> default_jobs ()

(* --- the persistent pool -------------------------------------------------- *)

type t = {
  m : Mutex.t;
  nonempty : Condition.t;  (* workers sleep here waiting for work *)
  progress : Condition.t;  (* awaiters sleep here; broadcast per completion *)
  q : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable domains : unit Domain.t array;
  jobs : int;
}

(* A ticket's outcome is written exactly once, under the pool mutex, by
   the worker that ran the task; [progress] is broadcast afterwards, so
   awaiters never miss the transition. *)
type 'a outcome = Pending | Done of 'a | Failed of exn * Printexc.raw_backtrace

type 'a ticket = { pool : t; mutable outcome : 'a outcome }

(* Run one task; never raises. *)
let run_task f =
  match f () with
  | v -> Done v
  | exception e -> Failed (e, Printexc.get_raw_backtrace ())

let worker p () =
  let continue = ref true in
  while !continue do
    Mutex.lock p.m;
    while Queue.is_empty p.q && not p.closed do
      Condition.wait p.nonempty p.m
    done;
    if Queue.is_empty p.q then begin
      (* Closed, and the queue has drained: exit. *)
      continue := false;
      Mutex.unlock p.m
    end
    else begin
      let task = Queue.pop p.q in
      Mutex.unlock p.m;
      task ()
    end
  done

let create ?jobs () =
  let jobs = resolve_jobs jobs in
  let p =
    { m = Mutex.create ();
      nonempty = Condition.create ();
      progress = Condition.create ();
      q = Queue.create ();
      closed = false;
      domains = [||];
      jobs }
  in
  p.domains <- Array.init jobs (fun _ -> Domain.spawn (worker p));
  Metrics.gauge_add m_workers jobs;
  p

let size p = p.jobs

(* Distributed-trace handoff: capture the submitter's ambient context
   and reinstall it around the task on the worker, with a flow edge
   from the submitting span to the worker-side execution, so pass-chain
   spans nest under the request that triggered them even though they
   run on a pool domain. *)
let carry_trace f =
  if not (Span.enabled ()) then f
  else
    match Span.current () with
    | None -> f
    | Some ctx ->
      let flow = Span.local_flow_id () in
      Span.flow_out ~id:flow;
      fun () ->
        Span.with_context (Some ctx) (fun () ->
            Span.with_ ~name:"pool:task" (fun () ->
                Span.flow_in ~id:flow;
                f ()))

let submit p f =
  let f = carry_trace f in
  let tk = { pool = p; outcome = Pending } in
  (* [None]: metrics were off at submit time, so no wait sample. *)
  let enqueued = if Metrics.enabled () then Some (Clock.now ()) else None in
  let task () =
    Metrics.gauge_add m_queue_depth (-1);
    Metrics.gauge_add m_busy 1;
    Option.iter (fun t -> Metrics.observe m_job_wait (Clock.since t)) enqueued;
    let t0 = Clock.now () in
    let o = run_task f in
    Metrics.observe m_job_run (Clock.since t0);
    Metrics.incr m_jobs_total;
    Metrics.gauge_add m_busy (-1);
    Mutex.lock p.m;
    tk.outcome <- o;
    Condition.broadcast p.progress;
    Mutex.unlock p.m
  in
  Mutex.lock p.m;
  if p.closed then begin
    Mutex.unlock p.m;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push task p.q;
  Metrics.gauge_add m_queue_depth 1;
  Condition.signal p.nonempty;
  Mutex.unlock p.m;
  tk

(* The task's outcome, blocking; does not re-raise. *)
let wait_outcome tk =
  let p = tk.pool in
  let is_pending () =
    match tk.outcome with Pending -> true | Done _ | Failed _ -> false
  in
  Mutex.lock p.m;
  while is_pending () do
    Condition.wait p.progress p.m
  done;
  let o = tk.outcome in
  Mutex.unlock p.m;
  o

let await tk =
  match wait_outcome tk with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

let shutdown p =
  Mutex.lock p.m;
  if p.closed then Mutex.unlock p.m
  else begin
    p.closed <- true;
    Condition.broadcast p.nonempty;
    Mutex.unlock p.m;
    Array.iter Domain.join p.domains;
    Metrics.gauge_add m_workers (-Array.length p.domains);
    p.domains <- [||]
  end

(* --- one-shot maps -------------------------------------------------------- *)

(* Lowest-index failure wins, for a deterministic error report; every
   task runs even when an earlier one failed. *)
let raise_first_failure outcomes =
  List.iter
    (function
      | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
      | Pending | Done _ -> ())
    outcomes

let map ?jobs f xs =
  let n = List.length xs in
  let jobs = clamp_jobs (min (resolve_jobs jobs) (max 1 n)) in
  let outcomes =
    if jobs = 1 then
      (* Sequential fallback: no domain is ever spawned, and no pool
         job is counted. *)
      List.map (fun x -> run_task (fun () -> f x)) xs
    else begin
      let p = create ~jobs () in
      let tickets = List.map (fun x -> submit p (fun () -> f x)) xs in
      let outcomes = List.map wait_outcome tickets in
      shutdown p;
      outcomes
    end
  in
  raise_first_failure outcomes;
  List.map
    (function Done v -> v | Pending | Failed _ -> assert false)
    outcomes
