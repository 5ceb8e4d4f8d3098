(* The bounded LRU map every service cache evicts through, checked
   against a list-based exact-LRU reference: random operation sequences
   must give the same answers, victims, length and final contents. *)

module Lru = Ogc_exec.Lru

type op = Find of int | Mem of int | Add of int * int | Remove of int

let show_op = function
  | Find k -> Printf.sprintf "find %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k

(* The reference: bindings most recently used first. *)
module Model = struct
  type t = { cap : int; mutable l : (int * int) list }

  let touch m k v = m.l <- (k, v) :: List.remove_assoc k m.l

  let find m k =
    match List.assoc_opt k m.l with
    | Some v ->
      touch m k v;
      Some v
    | None -> None

  let add m k v =
    if List.mem_assoc k m.l then begin
      touch m k v;
      None
    end
    else begin
      let victim =
        if List.length m.l < m.cap then None
        else
          match List.rev m.l with
          | oldest :: rest ->
            m.l <- List.rev rest;
            Some oldest
          | [] -> None
      in
      m.l <- (k, v) :: m.l;
      victim
    end
end

(* Keys are drawn from a range a little wider than the largest capacity,
   so finds miss, adds replace and adds evict, all often. *)
let keys = 10

let gen_op =
  QCheck.Gen.(
    frequency
      [ (3, map (fun k -> Find k) (int_bound (keys - 1)));
        (1, map (fun k -> Mem k) (int_bound (keys - 1)));
        (4, map2 (fun k v -> Add (k, v)) (int_bound (keys - 1)) nat);
        (1, map (fun k -> Remove k) (int_bound (keys - 1))) ])

let arb =
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity %d: %s" cap
        (String.concat "; " (List.map show_op ops)))
    QCheck.Gen.(pair (int_range 1 8) (list_size (int_bound 200) gen_op))

let prop_matches_reference =
  QCheck.Test.make ~name:"lru == list-based exact LRU" ~count:500 arb
    (fun (cap, ops) ->
      let t = Lru.create cap and m = { Model.cap; l = [] } in
      let evicted = ref 0 in
      let same what a b =
        a = b || QCheck.Test.fail_reportf "%s differs from the reference" what
      in
      List.iter
        (fun op ->
          let what = show_op op in
          ignore
            (match op with
            | Find k -> same what (Lru.find t k) (Model.find m k)
            | Mem k -> same what (Lru.mem t k) (List.mem_assoc k m.Model.l)
            | Add (k, v) ->
              let victim = Model.add m k v in
              if victim <> None then incr evicted;
              same what (Lru.add t k v) victim
            | Remove k ->
              Lru.remove t k;
              m.Model.l <- List.remove_assoc k m.Model.l;
              true);
          ignore
            (same (what ^ ": length") (Lru.length t)
               (List.length m.Model.l)))
        ops;
      ignore (same "evictions" (Lru.evictions t) !evicted);
      (* Contents last: read least recently used first, so every read
         leaves the ones still to come in their order. *)
      List.for_all
        (fun k -> Lru.mem t k = List.mem_assoc k m.Model.l)
        (List.init keys Fun.id)
      && List.for_all
           (fun (k, v) -> Lru.find t k = Some v)
           (List.rev m.Model.l))

let test_capacity_clamped () =
  let t = Lru.create 0 in
  Alcotest.(check int) "capacity at least 1" 1 (Lru.capacity t);
  Alcotest.(check (option (pair string int))) "first add evicts nothing" None
    (Lru.add t "a" 1);
  Alcotest.(check (option (pair string int))) "second add evicts the first"
    (Some ("a", 1)) (Lru.add t "b" 2);
  Alcotest.(check int) "one eviction" 1 (Lru.evictions t)

let test_mem_keeps_recency () =
  let t = Lru.create 2 in
  ignore (Lru.add t "a" 1);
  ignore (Lru.add t "b" 2);
  Alcotest.(check bool) "a bound" true (Lru.mem t "a");
  Alcotest.(check (option (pair string int))) "mem did not refresh a"
    (Some ("a", 1)) (Lru.add t "c" 3);
  ignore (Lru.find t "b");
  Alcotest.(check (option (pair string int))) "find refreshed b"
    (Some ("c", 3)) (Lru.add t "d" 4)

let () =
  Alcotest.run "lru"
    [ ( "lru",
        [ Alcotest.test_case "capacity clamped" `Quick test_capacity_clamped;
          Alcotest.test_case "mem keeps recency, find refreshes" `Quick
            test_mem_keeps_recency;
          QCheck_alcotest.to_alcotest prop_matches_reference ] ) ]
