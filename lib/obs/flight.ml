module J = Ogc_json.Json

type record = {
  f_id : string option; (* client-supplied request id *)
  f_trace : string option; (* distributed trace id *)
  f_key : string; (* route/cache key, "" when the op has none *)
  f_shard : string; (* shard id, or "router" *)
  f_op : string;
  f_queue_ms : float; (* admission-to-execution wait *)
  f_hedged : bool;
  f_cache : string; (* "hit" | "miss" | "" *)
  f_outcome : string; (* response status *)
  f_ms : float; (* end-to-end duration *)
  f_ts : float; (* wall-clock Unix seconds at completion *)
}

let dummy =
  { f_id = None; f_trace = None; f_key = ""; f_shard = ""; f_op = "";
    f_queue_ms = 0.0; f_hedged = false; f_cache = ""; f_outcome = "";
    f_ms = 0.0; f_ts = 0.0 }

let capacity = 1 lsl 12

(* Unlike spans the recorder is always on: one mutex-guarded array write
   per request, no allocation beyond the record the caller built. *)
let m = Mutex.create ()
let buf = Array.make capacity dummy
let total_ = ref 0
let slow_ms_ = ref None

let set_slow_ms v = Mutex.lock m; slow_ms_ := v; Mutex.unlock m

let to_json r =
  let opt k = function Some v -> [ (k, J.Str v) ] | None -> [] in
  J.Obj
    (opt "id" r.f_id @ opt "trace_id" r.f_trace
    @ [ ("key", J.Str r.f_key);
        ("shard", J.Str r.f_shard);
        ("op", J.Str r.f_op);
        ("queue_ms", J.Float r.f_queue_ms);
        ("hedged", J.Bool r.f_hedged);
        ("cache", J.Str r.f_cache);
        ("outcome", J.Str r.f_outcome);
        ("ms", J.Float r.f_ms);
        ("ts", J.Float r.f_ts) ])

let fields r = match to_json r with J.Obj kvs -> kvs | _ -> []

(* Slow-request auto-capture: the flight record plus the local span
   slice of its trace (when spans were on and the request was traced)
   land in one structured log line, so a tail-latency incident leaves
   evidence even if nobody was watching Perfetto. *)
let capture_slow r =
  let spans =
    match r.f_trace with
    | Some tr when Span.enabled () -> [ ("spans", Span.trace_slice tr) ]
    | _ -> []
  in
  Log.warn ~fields:(fields r @ spans) "slow_request"

let record r =
  Mutex.lock m;
  buf.(!total_ mod capacity) <- r;
  incr total_;
  let slow = match !slow_ms_ with Some t -> r.f_ms > t | None -> false in
  Mutex.unlock m;
  if slow then capture_slow r

let snapshot () =
  Mutex.lock m;
  let total = !total_ in
  let n = min total capacity in
  let first = total - n in
  let rs = List.init n (fun i -> buf.((first + i) mod capacity)) in
  Mutex.unlock m;
  rs

let total () = Mutex.lock m; let t = !total_ in Mutex.unlock m; t
let dropped () = max 0 (total () - capacity)

let to_json_all () =
  J.Obj
    [ ("total", J.Int (total ()));
      ("dropped", J.Int (dropped ()));
      ("records", J.Arr (List.map to_json (snapshot ()))) ]

let dump oc =
  List.iter
    (fun r ->
      output_string oc (J.to_string ~indent:false (to_json r));
      output_char oc '\n')
    (snapshot ())

let reset () =
  Mutex.lock m;
  Array.fill buf 0 capacity dummy;
  total_ := 0;
  slow_ms_ := None;
  Mutex.unlock m
