(* Exact LRU: a hash table from keys to the nodes of a doubly linked
   list ordered from the most to the least recently used binding.  A
   lookup relinks its node at the front; an insert into a full map
   unlinks the back. *)

type ('k, 'v) node = {
  key : 'k;
  mutable value : 'v;
  mutable newer : ('k, 'v) node option;
  mutable older : ('k, 'v) node option;
}

type ('k, 'v) t = {
  capacity : int;
  tbl : ('k, ('k, 'v) node) Hashtbl.t;
  mutable newest : ('k, 'v) node option;
  mutable oldest : ('k, 'v) node option;
  mutable evictions : int;
}

let create capacity =
  let capacity = max 1 capacity in
  { capacity;
    tbl = Hashtbl.create (min capacity 64);
    newest = None;
    oldest = None;
    evictions = 0 }

let capacity t = t.capacity
let length t = Hashtbl.length t.tbl
let evictions t = t.evictions
let mem t k = Hashtbl.mem t.tbl k

let unlink t n =
  (match n.newer with
  | Some p -> p.older <- n.older
  | None -> t.newest <- n.older);
  (match n.older with
  | Some q -> q.newer <- n.newer
  | None -> t.oldest <- n.newer);
  n.newer <- None;
  n.older <- None

let push_newest t n =
  let sn = Some n in
  n.older <- t.newest;
  (match t.newest with Some h -> h.newer <- sn | None -> t.oldest <- sn);
  t.newest <- sn

let touch t n =
  match t.newest with
  | Some h when h == n -> ()
  | _ ->
    unlink t n;
    push_newest t n

let find t k =
  match Hashtbl.find_opt t.tbl k with
  | Some n ->
    touch t n;
    Some n.value
  | None -> None

let add t k v =
  match Hashtbl.find_opt t.tbl k with
  | Some n ->
    n.value <- v;
    touch t n;
    None
  | None ->
    let victim =
      match t.oldest with
      | Some o when Hashtbl.length t.tbl >= t.capacity ->
        unlink t o;
        Hashtbl.remove t.tbl o.key;
        t.evictions <- t.evictions + 1;
        Some (o.key, o.value)
      | _ -> None
    in
    let n = { key = k; value = v; newer = None; older = None } in
    Hashtbl.replace t.tbl k n;
    push_newest t n;
    victim

let remove t k =
  match Hashtbl.find_opt t.tbl k with
  | Some n ->
    unlink t n;
    Hashtbl.remove t.tbl k
  | None -> ()
