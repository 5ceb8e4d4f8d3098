(* Content-addressed analysis cache: MD5 of the canonical request ->
   serialized result payload.  The memory tier is an exact LRU
   ({!Ogc_exec.Lru}): every hit refreshes its entry, and a store into a
   full tier evicts the least recently used one. *)

module J = Ogc_json.Json
module Lru = Ogc_exec.Lru
module Metrics = Ogc_obs.Metrics
module Log = Ogc_obs.Log

let m_hits_mem =
  Metrics.counter "ogc_cache_hits_total" ~labels:[ ("tier", "memory") ]

let m_hits_disk =
  Metrics.counter "ogc_cache_hits_total" ~labels:[ ("tier", "disk") ]

let m_misses = Metrics.counter "ogc_cache_misses_total"
let m_disk_errors = Metrics.counter "ogc_cache_disk_errors_total"
let m_evictions = Metrics.counter "ogc_cache_evictions_total"
let m_entries = Metrics.gauge "ogc_cache_entries"
let m_bytes = Metrics.gauge "ogc_cache_bytes"

type stats = {
  entries : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
  disk_hits : int;
  mem_bytes : int;
  disk_entries : int;
  disk_bytes : int;
}

type t = {
  dir : string option;
  mem : (string, string) Lru.t;
  m : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable disk_hits : int;
  mutable mem_bytes : int;  (* Σ String.length over in-memory values *)
}

let key_of_string s = Digest.to_hex (Digest.string s)

let create ?(capacity = 256) ?dir () =
  (match dir with
  | Some d when not (Sys.file_exists d) -> Unix.mkdir d 0o755
  | _ -> ());
  { dir;
    mem = Lru.create capacity;
    m = Mutex.create ();
    hits = 0;
    misses = 0;
    disk_hits = 0;
    mem_bytes = 0 }

let path_of t key =
  match t.dir with
  | None -> None
  | Some d -> Some (Filename.concat d (key ^ ".json"))

let read_file path =
  if Sys.file_exists path then
    Some (In_channel.with_open_bin path In_channel.input_all)
  else None

(* Atomic publish: a crashed writer never leaves a torn cache file.  The
   flush is inside the callback because [with_open_bin] closes without
   reporting errors: a failed write must raise before the rename, and a
   failure leaves no [.tmp] behind. *)
let write_file path value =
  let tmp = path ^ ".tmp" in
  try
    Out_channel.with_open_bin tmp (fun oc ->
        Out_channel.output_string oc value;
        Out_channel.flush oc);
    Sys.rename tmp path
  with Sys_error _ as e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

(* The disk tier is best-effort: a read that fails is a miss, a write
   that fails keeps the memory entry.  Either is counted and logged with
   its path, and neither reaches the request. *)
let disk_failed op path e =
  Metrics.incr m_disk_errors;
  Log.warn
    (Printf.sprintf "ogc-cache: disk %s failed" op)
    ~fields:[ ("path", J.Str path); ("error", J.Str (Printexc.to_string e)) ]

let read_disk t key =
  match path_of t key with
  | None -> None
  | Some path -> (
    try read_file path
    with Sys_error _ as e ->
      disk_failed "read" path e;
      None)

let insert_locked t key value =
  if not (Lru.mem t.mem key) then begin
    (match Lru.add t.mem key value with
    | Some (_, old) ->
      t.mem_bytes <- t.mem_bytes - String.length old;
      Metrics.incr m_evictions
    | None -> ());
    t.mem_bytes <- t.mem_bytes + String.length value;
    Metrics.gauge_set m_entries (Lru.length t.mem);
    Metrics.gauge_set m_bytes t.mem_bytes
  end

(* A lookup; [count] says whether it moves the hit/miss counters. *)
let lookup t key ~count =
  Mutex.protect t.m (fun () ->
      match Lru.find t.mem key with
      | Some value ->
        if count then begin
          t.hits <- t.hits + 1;
          Metrics.incr m_hits_mem
        end;
        Some value
      | None -> (
        match read_disk t key with
        | Some value ->
          (* Disk hit: promote into the in-memory tier. *)
          insert_locked t key value;
          if count then begin
            t.hits <- t.hits + 1;
            t.disk_hits <- t.disk_hits + 1;
            Metrics.incr m_hits_disk
          end;
          Some value
        | None ->
          if count then begin
            t.misses <- t.misses + 1;
            Metrics.incr m_misses
          end;
          None))

let find t key = lookup t key ~count:true
let find_uncounted t key = lookup t key ~count:false

let store t key value =
  Mutex.protect t.m (fun () ->
      insert_locked t key value;
      match path_of t key with
      | Some path when not (Sys.file_exists path) -> (
        try write_file path value
        with Sys_error _ as e -> disk_failed "write" path e)
      | _ -> ())

(* Disk-tier footprint: one stat per entry file.  Not under the cache
   mutex — a concurrent store may add a file mid-scan, which only skews
   a monitoring number. *)
let disk_usage t =
  match t.dir with
  | None -> (0, 0)
  | Some d ->
    (try
       Array.fold_left
         (fun (n, bytes) name ->
           if Filename.check_suffix name ".json" then begin
             match Unix.stat (Filename.concat d name) with
             | { Unix.st_kind = Unix.S_REG; st_size; _ } ->
               (n + 1, bytes + st_size)
             | _ | (exception Unix.Unix_error _) -> (n, bytes)
           end
           else (n, bytes))
         (0, 0) (Sys.readdir d)
     with Sys_error _ -> (0, 0))

let stats t =
  let disk_entries, disk_bytes = disk_usage t in
  Mutex.protect t.m (fun () ->
      { entries = Lru.length t.mem;
        capacity = Lru.capacity t.mem;
        hits = t.hits;
        misses = t.misses;
        evictions = Lru.evictions t.mem;
        disk_hits = t.disk_hits;
        mem_bytes = t.mem_bytes;
        disk_entries;
        disk_bytes })
