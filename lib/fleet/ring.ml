(* Classic consistent hashing (Karger et al.): every shard hashes to
   [vnodes] points on a 64-bit ring, a key belongs to the first point at
   or after its own hash.  MD5 keeps the placement deterministic across
   processes — the router and any external tool agree on ownership
   without coordination. *)

type t = {
  vnodes : int;
  members : string list;  (* sorted, deduplicated *)
  points : (int64 * string) array;  (* sorted by (hash, shard) *)
}

(* First 8 bytes of the MD5, big-endian, as an unsigned ring position
   (compared with [Int64.unsigned_compare]). *)
let hash_of s = Bytes.get_int64_be (Bytes.of_string (Digest.string s)) 0

let point_compare (h1, s1) (h2, s2) =
  match Int64.unsigned_compare h1 h2 with
  | 0 -> String.compare s1 s2
  | c -> c

let build vnodes members =
  let points =
    List.concat_map
      (fun s ->
        List.init vnodes (fun i ->
            (hash_of (Printf.sprintf "%s#%d" s i), s)))
      members
    |> Array.of_list
  in
  Array.sort point_compare points;
  { vnodes; members; points }

let create ?(vnodes = 128) shards =
  if vnodes <= 0 then invalid_arg "Ring.create: vnodes must be positive";
  let members = List.sort_uniq String.compare shards in
  if members = [] then invalid_arg "Ring.create: no shards";
  build vnodes members

let shards t = t.members

let add t s =
  if List.mem s t.members then t
  else build t.vnodes (List.sort String.compare (s :: t.members))

let remove t s =
  match List.filter (fun m -> not (String.equal m s)) t.members with
  | [] -> invalid_arg "Ring.remove: cannot remove the last shard"
  | members -> build t.vnodes members

(* Index of the first point at or after [h], wrapping to 0 past the
   top.  [points] is never empty (create forbids an empty ring). *)
let successor_index t h =
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  (* invariant: points before !lo are < h, points from !hi are >= h *)
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Int64.unsigned_compare (fst t.points.(mid)) h < 0 then lo := mid + 1
    else hi := mid
  done;
  if !lo = n then 0 else !lo

let lookup t key = snd t.points.(successor_index t (hash_of key))

let successors t key n =
  let total = Array.length t.points in
  let start = successor_index t (hash_of key) in
  let want = min n (List.length t.members) in
  let rec walk i acc found =
    if found >= want then List.rev acc
    else
      let s = snd t.points.((start + i) mod total) in
      if List.mem s acc then walk (i + 1) acc found
      else walk (i + 1) (s :: acc) (found + 1)
  in
  if n <= 0 then [] else walk 0 [] 0
