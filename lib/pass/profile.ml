(* Streamed execution profiles (the `profile` protocol op).

   A client that ran a program it previously submitted can stream back
   what it observed: basic-block execution counts, TNV-style
   (value, count) observations per instruction, and instructions whose
   produced value was zero every time it was sampled.  The server
   accumulates these into one profile per program; profile-dependent
   passes then consume the accumulated profile instead of running the
   training interpreter.

   Instruction ids refer to the program as submitted (the deterministic
   compiler gives identical ids for identical sources); basic-block
   counts are keyed by function name and indexed by block label.  The
   JSON shape below serves both client deltas and accumulated
   snapshots; values are carried as decimal strings so full-width
   int64s survive the 63-bit JSON integer. *)

module Prog = Ogc_ir.Prog
module Interp = Ogc_ir.Interp
module Vrs = Ogc_core.Vrs
module J = Ogc_json.Json

type t = {
  mutable p_epoch : int;  (* 0 = no profile pushed yet *)
  p_bb : Interp.bb_counts;
  mutable p_total : int;  (* total dynamic instructions behind [p_bb] *)
  p_values : (int, (int64 * int) list) Hashtbl.t;
  p_zeros : (int, int) Hashtbl.t;  (* iid -> always-zero observations *)
}

let create () =
  {
    p_epoch = 0;
    p_bb = Hashtbl.create 16;
    p_total = 0;
    p_values = Hashtbl.create 16;
    p_zeros = Hashtbl.create 16;
  }

let epoch t = t.p_epoch

(* Deep copy: the server's profile store merges a push into a copy, so
   a profile a chain was run with is never written again. *)
let copy t =
  let bb = Hashtbl.create (Hashtbl.length t.p_bb) in
  Hashtbl.iter (fun fn a -> Hashtbl.replace bb fn (Array.copy a)) t.p_bb;
  {
    p_epoch = t.p_epoch;
    p_bb = bb;
    p_total = t.p_total;
    p_values = Hashtbl.copy t.p_values;
    p_zeros = Hashtbl.copy t.p_zeros;
  }

(* Combine duplicate values and order like {!Ogc_core.Tnv.entries}:
   descending count, ascending value. *)
let aggregate entries =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (v, c) ->
      if c > 0 then
        Hashtbl.replace tbl v (c + Option.value ~default:0 (Hashtbl.find_opt tbl v)))
    entries;
  Hashtbl.fold (fun v c acc -> (v, c) :: acc) tbl []
  |> List.sort (fun (v1, a) (v2, b) ->
         match Int.compare b a with 0 -> Int64.compare v1 v2 | c -> c)

(* Per-candidate observations for {!Ogc_core.Vrs.analyze}'s [values]
   input, with the always-zero table folded in as (0, count) entries. *)
let values_table t =
  let out = Hashtbl.create (Hashtbl.length t.p_values) in
  Hashtbl.iter (fun iid es -> Hashtbl.replace out iid es) t.p_values;
  Hashtbl.iter
    (fun iid n ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt out iid) in
      Hashtbl.replace out iid (aggregate ((0L, n) :: cur)))
    t.p_zeros;
  out

(* Accumulate [delta] into [dst] (counts add; the epoch is the store's
   concern, not touched here). *)
let merge_into dst delta =
  Hashtbl.iter
    (fun fn (counts : int array) ->
      match Hashtbl.find_opt dst.p_bb fn with
      | None -> Hashtbl.replace dst.p_bb fn (Array.copy counts)
      | Some cur ->
        if Array.length counts > Array.length cur then begin
          let grown = Array.make (Array.length counts) 0 in
          Array.blit cur 0 grown 0 (Array.length cur);
          Array.iteri (fun i c -> grown.(i) <- grown.(i) + c) counts;
          Hashtbl.replace dst.p_bb fn grown
        end
        else Array.iteri (fun i c -> cur.(i) <- cur.(i) + c) counts)
    delta.p_bb;
  dst.p_total <- dst.p_total + delta.p_total;
  Hashtbl.iter
    (fun iid es ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt dst.p_values iid) in
      Hashtbl.replace dst.p_values iid (aggregate (es @ cur)))
    delta.p_values;
  Hashtbl.iter
    (fun iid n ->
      Hashtbl.replace dst.p_zeros iid
        (n + Option.value ~default:0 (Hashtbl.find_opt dst.p_zeros iid)))
    delta.p_zeros

(* --- client-side collection ----------------------------------------------- *)

(* The compiler is deterministic, so a client that compiled the bytes it
   submitted holds the server's instruction ids and block labels.  The
   profiling points come from the same front-half analysis the server's
   chain runs (on VRP-re-encoded code, which keeps every id); one
   interpreter run then collects block counts and each point's values. *)
let collect p =
  let p = Prog.copy p in
  let a = Vrs.analyze p in
  let hooks : (int, int64 -> unit) Hashtbl.t = Hashtbl.create 16 in
  let obs = Hashtbl.create 16 in
  List.iter
    (fun iid ->
      let tbl : (int64, int ref) Hashtbl.t = Hashtbl.create 8 in
      Hashtbl.replace obs iid tbl;
      Hashtbl.replace hooks iid (fun v ->
          match Hashtbl.find_opt tbl v with
          | Some r -> incr r
          | None -> Hashtbl.replace tbl v (ref 1)))
    (Vrs.candidate_iids a);
  let counts : Interp.bb_counts = Hashtbl.create 64 in
  let out = Interp.run ~bb_counts:counts ~profile:hooks p in
  let t = create () in
  Hashtbl.iter (fun fn arr -> Hashtbl.replace t.p_bb fn arr) counts;
  t.p_total <- out.Interp.steps;
  Hashtbl.iter
    (fun iid tbl ->
      match Hashtbl.fold (fun v r acc -> (v, !r) :: acc) tbl [] with
      | [] -> ()
      | [ (0L, n) ] ->
        (* zero on every commit: the always-zero table, what the zspec
           pass wants *)
        Hashtbl.replace t.p_zeros iid n
      | entries -> Hashtbl.replace t.p_values iid entries)
    obs;
  t

(* --- wire codec ------------------------------------------------------------ *)

let to_json t =
  let bb =
    Hashtbl.fold (fun fn counts acc -> (fn, counts) :: acc) t.p_bb []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (fn, counts) ->
           J.Obj
             [ ("fn", J.Str fn);
               ("counts",
                J.Arr (Array.to_list (Array.map (fun c -> J.Int c) counts))) ])
  in
  let values =
    Hashtbl.fold (fun iid es acc -> (iid, es) :: acc) t.p_values []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map (fun (iid, es) ->
           J.Obj
             [ ("iid", J.Int iid);
               ("entries",
                J.Arr
                  (List.map
                     (fun (v, c) ->
                       J.Arr [ J.Str (Int64.to_string v); J.Int c ])
                     (aggregate es))) ])
  in
  let zeros =
    Hashtbl.fold (fun iid n acc -> (iid, n) :: acc) t.p_zeros []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map (fun (iid, n) -> J.Arr [ J.Int iid; J.Int n ])
  in
  J.Obj
    [ ("epoch", J.Int t.p_epoch);
      ("total_dyn", J.Int t.p_total);
      ("bb", J.Arr bb);
      ("values", J.Arr values);
      ("zeros", J.Arr zeros) ]

exception Malformed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt

let of_json j =
  (match j with J.Obj _ -> () | _ -> fail "expected an object");
  let t = create () in
  (match J.member "epoch" j with
  | J.Int e when e >= 0 -> t.p_epoch <- e
  | J.Null -> ()
  | _ -> fail "epoch: expected a non-negative integer");
  (match J.member "total_dyn" j with
  | J.Int n when n >= 0 -> t.p_total <- n
  | J.Null -> ()
  | _ -> fail "total_dyn: expected a non-negative integer");
  (match J.member "bb" j with
  | J.Arr items ->
    List.iter
      (fun item ->
        match (J.member "fn" item, J.member "counts" item) with
        | J.Str fn, J.Arr cs ->
          let counts =
            Array.of_list
              (List.map
                 (function
                   | J.Int c when c >= 0 -> c
                   | _ -> fail "bb counts: expected non-negative integers")
                 cs)
          in
          Hashtbl.replace t.p_bb fn counts
        | _ -> fail "bb: expected {fn, counts} objects")
      items
  | J.Null -> ()
  | _ -> fail "bb: expected an array");
  (match J.member "values" j with
  | J.Arr items ->
    List.iter
      (fun item ->
        match (J.member "iid" item, J.member "entries" item) with
        | J.Int iid, J.Arr es when iid >= 0 ->
          let entries =
            List.map
              (function
                | J.Arr [ J.Str v; J.Int c ] when c >= 0 -> (
                  match Int64.of_string_opt v with
                  | Some v -> (v, c)
                  | None -> fail "values: bad int64 %S" v)
                | _ -> fail "values: expected [value, count] pairs")
              es
          in
          Hashtbl.replace t.p_values iid (aggregate entries)
        | _ -> fail "values: expected {iid, entries} objects")
      items
  | J.Null -> ()
  | _ -> fail "values: expected an array");
  (match J.member "zeros" j with
  | J.Arr items ->
    List.iter
      (function
        | J.Arr [ J.Int iid; J.Int n ] when iid >= 0 && n >= 0 ->
          Hashtbl.replace t.p_zeros iid
            (n + Option.value ~default:0 (Hashtbl.find_opt t.p_zeros iid))
        | _ -> fail "zeros: expected [iid, count] pairs")
      items
  | J.Null -> ()
  | _ -> fail "zeros: expected an array");
  t
