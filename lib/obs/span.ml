module J = Ogc_json.Json

let enabled_flag = Atomic.make false
let epoch = Atomic.make 0.0 (* trace clock origin, set on enable *)

let set_enabled b =
  if b then Atomic.set epoch (Clock.now ());
  Atomic.set enabled_flag b

let enabled () = Atomic.get enabled_flag

(* Span/flow ids.  One process-wide counter: span ids are unique within
   a process but NOT across processes, so anything that must match on
   both sides of a socket (flow binding) goes through [wire_flow_id],
   which is derived from wire data instead. *)
let next_id = Atomic.make 1
let fresh_id () = Atomic.fetch_and_add next_id 1

(* First 60 bits of an MD5, as a non-negative int: stable across
   processes for equal input, which is the whole point. *)
let digest_id s =
  let d = Digest.string s in
  let v = ref 0 in
  for i = 0 to 7 do
    v := (!v lsl 8) lor Char.code d.[i]
  done;
  !v land max_int

let wire_flow_id ~trace ~parent =
  digest_id (trace ^ "/" ^ string_of_int parent)

(* For in-process handoffs (pool submit -> worker) both ends share a
   closure, so the id only has to be unique; salt with the pid so two
   processes' local flows can never collide in a merged document. *)
let local_flow_id () =
  digest_id (string_of_int (Unix.getpid ()) ^ ":" ^ string_of_int (fresh_id ()))

(* --- ambient trace context ------------------------------------------------ *)

type ctx = { trace : string; parent : int }

let ctxs : (int, ctx) Hashtbl.t = Hashtbl.create 16
let ctxs_m = Mutex.create ()

let current () =
  let tid = Thread.id (Thread.self ()) in
  Mutex.lock ctxs_m;
  let c = Hashtbl.find_opt ctxs tid in
  Mutex.unlock ctxs_m;
  c

let set_context c =
  let tid = Thread.id (Thread.self ()) in
  Mutex.lock ctxs_m;
  (match c with
  | Some c -> Hashtbl.replace ctxs tid c
  | None -> Hashtbl.remove ctxs tid);
  Mutex.unlock ctxs_m

let with_context c f =
  let saved = current () in
  set_context c;
  Fun.protect ~finally:(fun () -> set_context saved) f

(* --- rings ---------------------------------------------------------------- *)

type ev = {
  ph : char; (* 'B' | 'E' | 'i' | 's' | 'f' *)
  ename : string;
  ts : float; (* µs since enable *)
  eid : int; (* span id for B/E, flow id for s/f, 0 otherwise *)
  eargs : (string * J.t) list;
}

let dummy = { ph = ' '; ename = ""; ts = 0.0; eid = 0; eargs = [] }
let capacity = 1 lsl 15
let m_dropped = Metrics.counter "ogc_span_dropped_total"

(* One ring per thread: [Thread.id] is unique across all domains, so a
   ring has a single writer and appends contend only with an export
   snapshotting that same ring. *)
type ring = {
  rm : Mutex.t;
  buf : ev array;
  mutable total : int; (* events ever written; index = total mod capacity *)
  rtid : int;
  rdid : int; (* domain at ring creation, for the track name *)
}

let rings : (int, ring) Hashtbl.t = Hashtbl.create 16
let rings_m = Mutex.create ()

let ring_for_current () =
  let tid = Thread.id (Thread.self ()) in
  Mutex.lock rings_m;
  let r =
    match Hashtbl.find_opt rings tid with
    | Some r -> r
    | None ->
      let r =
        { rm = Mutex.create ();
          buf = Array.make capacity dummy;
          total = 0;
          rtid = tid;
          rdid = (Domain.self () :> int) }
      in
      Hashtbl.add rings tid r;
      r
  in
  Mutex.unlock rings_m;
  r

(* [t] is a {!Clock} reading; the event's [ts] is µs since enable. *)
let emit_at r t ph ename eid eargs =
  let ts = (t -. Atomic.get epoch) *. 1e6 in
  Mutex.lock r.rm;
  if r.total >= capacity then Metrics.incr m_dropped;
  r.buf.(r.total mod capacity) <- { ph; ename; ts; eid; eargs };
  r.total <- r.total + 1;
  Mutex.unlock r.rm

let emit r ph ename eid eargs = emit_at r (Clock.now ()) ph ename eid eargs

(* A recorded span: the two clock readings that stamp its B and E
   events are also the duration it returns, so a histogram fed from
   that duration and the trace cannot disagree. *)
let traced ~args ~name f =
  let r = ring_for_current () in
  let sid = fresh_id () in
  let ctx = current () in
  let targs =
    match ctx with
    | None -> [ ("span_id", J.Int sid) ]
    | Some c ->
      [ ("span_id", J.Int sid); ("trace_id", J.Str c.trace);
        ("parent_span", J.Int c.parent) ]
  in
  let t0 = Clock.now () in
  emit_at r t0 'B' name sid (args @ targs);
  let run () =
    match ctx with
    | None -> f ()
    | Some c -> with_context (Some { c with parent = sid }) f
  in
  match run () with
  | v ->
    let t1 = Clock.now () in
    emit_at r t1 'E' name sid [];
    (v, t1 -. t0)
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    emit r 'E' name sid [];
    Printexc.raise_with_backtrace e bt

let with_ ?(args = []) ~name f =
  if not (enabled ()) then f () else fst (traced ~args ~name f)

let timed ?(args = []) ~name f =
  if enabled () then traced ~args ~name f
  else begin
    let t0 = Clock.now () in
    let v = f () in
    (v, Clock.since t0)
  end

let instant ?(args = []) name =
  if enabled () then emit (ring_for_current ()) 'i' name 0 args

(* Flow events bind to the enclosing slice on their thread: an 's' in
   the producer span and an 'f' in the consumer span draw the arrow
   Perfetto renders across tracks (and, after {!merge_processes},
   across processes). *)
let flow_out ~id = if enabled () then emit (ring_for_current ()) 's' "flow" id []
let flow_in ~id = if enabled () then emit (ring_for_current ()) 'f' "flow" id []

(* --- export --------------------------------------------------------------- *)

let ring_events r =
  Mutex.lock r.rm;
  let total = r.total in
  let n = min total capacity in
  let first = total - n in
  let evs = List.init n (fun i -> r.buf.((first + i) mod capacity)) in
  Mutex.unlock r.rm;
  evs

let event_json tid e =
  let base =
    [ ("name", J.Str e.ename);
      ("ph", J.Str (String.make 1 e.ph));
      ("ts", J.Float e.ts);
      ("pid", J.Int 1);
      ("tid", J.Int tid);
      ("cat", J.Str "ogc") ]
  in
  let extra =
    match e.ph with
    | 'i' -> [ ("s", J.Str "t") ]
    | 's' -> [ ("id", J.Int e.eid) ]
    | 'f' -> [ ("id", J.Int e.eid); ("bp", J.Str "e") ]
    | _ -> []
  in
  let args =
    match e.eargs with [] -> [] | a -> [ ("args", J.Obj a) ]
  in
  J.Obj (base @ extra @ args)

let thread_meta r =
  J.Obj
    [ ("name", J.Str "thread_name");
      ("ph", J.Str "M");
      ("pid", J.Int 1);
      ("tid", J.Int r.rtid);
      ("args",
       J.Obj
         [ ("name",
            J.Str (Printf.sprintf "domain %d / thread %d" r.rdid r.rtid)) ]) ]

let all_rings () =
  Mutex.lock rings_m;
  let rs = Hashtbl.fold (fun _ r acc -> r :: acc) rings [] in
  Mutex.unlock rings_m;
  List.sort (fun a b -> compare a.rtid b.rtid) rs

let dropped_events () =
  List.fold_left (fun acc r -> acc + max 0 (r.total - capacity)) 0 (all_rings ())

let export () =
  let rs = all_rings () in
  let metas = List.map thread_meta rs in
  let evs =
    List.concat_map (fun r -> List.map (event_json r.rtid) (ring_events r)) rs
  in
  let ts_of = function J.Obj kvs -> J.get_float "ts" (J.Obj kvs) | _ -> 0.0 in
  let evs = List.stable_sort (fun a b -> compare (ts_of a) (ts_of b)) evs in
  J.Obj
    [ ("traceEvents", J.Arr (metas @ evs));
      ("displayTimeUnit", J.Str "ms");
      ("dropped_events", J.Int (dropped_events ())) ]

(* Every event of every ring whose enclosing span carries [trace] in its
   begin args — the local slice of one distributed request, small enough
   to inline into a log line. *)
let trace_slice trace =
  let rs = all_rings () in
  let member_sids = Hashtbl.create 16 in
  List.iter
    (fun r ->
      List.iter
        (fun e ->
          if e.ph = 'B' then begin
            match List.assoc_opt "trace_id" e.eargs with
            | Some (J.Str t) when t = trace -> Hashtbl.replace member_sids e.eid ()
            | _ -> ()
          end)
        (ring_events r))
    rs;
  let evs =
    List.concat_map
      (fun r ->
        List.filter_map
          (fun e ->
            match e.ph with
            | ('B' | 'E') when Hashtbl.mem member_sids e.eid ->
              Some (event_json r.rtid e)
            | _ -> None)
          (ring_events r))
      rs
  in
  let ts_of = function J.Obj kvs -> J.get_float "ts" (J.Obj kvs) | _ -> 0.0 in
  J.Arr (List.stable_sort (fun a b -> compare (ts_of a) (ts_of b)) evs)

(* Merge per-process export documents into one: process [i] keeps its
   own tid space but gets pid [i+1] and a [process_name] metadata track,
   so a fleet trace renders router and shards as separate process groups
   with flow arrows crossing between them. *)
let merge_processes docs =
  let rekey pid = function
    | J.Obj kvs ->
      J.Obj (List.map (fun (k, v) -> if k = "pid" then (k, J.Int pid) else (k, v)) kvs)
    | j -> j
  in
  let events =
    List.concat
      (List.mapi
         (fun i (name, doc) ->
           let pid = i + 1 in
           let meta =
             J.Obj
               [ ("name", J.Str "process_name");
                 ("ph", J.Str "M");
                 ("pid", J.Int pid);
                 ("tid", J.Int 0);
                 ("args", J.Obj [ ("name", J.Str name) ]) ]
           in
           let evs =
             match J.member "traceEvents" doc with
             | J.Arr evs -> List.map (rekey pid) evs
             | _ -> []
           in
           meta :: evs)
         docs)
  in
  let dropped =
    List.fold_left
      (fun acc (_, doc) ->
        match J.member "dropped_events" doc with
        | J.Int n -> acc + n
        | _ -> acc)
      0 docs
  in
  J.Obj
    [ ("traceEvents", J.Arr events);
      ("displayTimeUnit", J.Str "ms");
      ("dropped_events", J.Int dropped) ]

let write path =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (J.to_string ~indent:false (export ()));
      output_char oc '\n')

let reset () =
  Mutex.lock rings_m;
  Hashtbl.reset rings;
  Mutex.unlock rings_m;
  Mutex.lock ctxs_m;
  Hashtbl.reset ctxs;
  Mutex.unlock ctxs_m
