open Ogc_isa

type t = { lo : int64; hi : int64 }

let v lo hi =
  if Int64.compare lo hi > 0 then
    Fmt.invalid_arg "Interval.v %Ld %Ld" lo hi;
  { lo; hi }

let top = { lo = Int64.min_int; hi = Int64.max_int }
let const c = { lo = c; hi = c }
let bool = { lo = 0L; hi = 1L }

let is_const i = if Int64.equal i.lo i.hi then Some i.lo else None
let equal a b = Int64.equal a.lo b.lo && Int64.equal a.hi b.hi
let contains i x = Int64.compare i.lo x <= 0 && Int64.compare x i.hi <= 0
let subset a b = Int64.compare b.lo a.lo <= 0 && Int64.compare a.hi b.hi <= 0

let full w = { lo = Width.min_value w; hi = Width.max_value w }

let unsigned_max = function
  | Width.W8 -> 255L
  | Width.W16 -> 65535L
  | Width.W32 -> 0xFFFF_FFFFL
  | Width.W64 -> Int64.max_int

let zero_extended w =
  match w with Width.W64 -> top | _ -> { lo = 0L; hi = unsigned_max w }

let join a b =
  { lo = (if Int64.compare a.lo b.lo <= 0 then a.lo else b.lo);
    hi = (if Int64.compare a.hi b.hi >= 0 then a.hi else b.hi) }

let meet a b =
  let lo = if Int64.compare a.lo b.lo >= 0 then a.lo else b.lo in
  let hi = if Int64.compare a.hi b.hi <= 0 then a.hi else b.hi in
  if Int64.compare lo hi <= 0 then Some { lo; hi } else None

let width i = Width.needed_range i.lo i.hi

let width_unsigned i =
  if Int64.compare i.lo 0L < 0 then Width.W64 else Width.needed_unsigned i.hi

(* --- checked int64 arithmetic ------------------------------------------- *)

let add_ovf a b =
  let s = Int64.add a b in
  (* Overflow iff both operands share a sign the sum does not. *)
  if Int64.logand (Int64.logxor a s) (Int64.logxor b s) < 0L then None
  else Some s

let sub_ovf a b =
  let s = Int64.sub a b in
  if Int64.logand (Int64.logxor a b) (Int64.logxor a s) < 0L then None
  else Some s

let mul_ovf a b =
  if Int64.equal a 0L || Int64.equal b 0L then Some 0L
  else if Int64.equal a (-1L) then
    if Int64.equal b Int64.min_int then None else Some (Int64.neg b)
  else if Int64.equal b (-1L) then
    if Int64.equal a Int64.min_int then None else Some (Int64.neg a)
  else
    let p = Int64.mul a b in
    if Int64.equal (Int64.div p a) b && Int64.equal (Int64.rem p a) 0L then
      Some p
    else None

let shl_ovf a s =
  if s < 0 || s > 63 then None
  else if Int64.equal a 0L then Some 0L
  else
    let r = Int64.shift_left a s in
    if Int64.equal (Int64.shift_right r s) a then Some r else None

(* --- forward transfers --------------------------------------------------- *)

(* Conservative input adjustment for a width-[w] operation: if the interval
   does not fit the signed range of [w], the truncated value is arbitrary. *)
let clamp w i = if subset i (full w) then i else full w

(* Ideal two's-complement result: exact when representable both in int64
   and in the operating width, otherwise the full wrapped range. *)
let fit w = function
  | Some lo, Some hi when subset { lo; hi } (full w) -> { lo; hi }
  | _ -> full w

let forward_add w a b =
  let a = clamp w a and b = clamp w b in
  fit w (add_ovf a.lo b.lo, add_ovf a.hi b.hi)

let forward_sub w a b =
  let a = clamp w a and b = clamp w b in
  fit w (sub_ovf a.lo b.hi, sub_ovf a.hi b.lo)

let min4 a b c d = min (min a b) (min c d)
let max4 a b c d = max (max a b) (max c d)

let forward_mul w a b =
  let a = clamp w a and b = clamp w b in
  match
    (mul_ovf a.lo b.lo, mul_ovf a.lo b.hi, mul_ovf a.hi b.lo, mul_ovf a.hi b.hi)
  with
  | Some p1, Some p2, Some p3, Some p4 ->
    fit w (Some (min4 p1 p2 p3 p4), Some (max4 p1 p2 p3 p4))
  | _ -> full w

let abs_bound i =
  (* max |x| over the interval; None when it would overflow (min_int). *)
  if Int64.equal i.lo Int64.min_int then None
  else Some (max (Int64.abs i.lo) (Int64.abs i.hi))

(* The ISA's division is total and trap-free: x/0 = 0, and min_int / -1
   wraps (to min_int for Div, 0 for Rem) — see Instr.eval_alu.  The
   int64 corner evaluations below must never hit the host's trapping
   min_int / -1. *)
let sdiv x y =
  if Int64.equal x Int64.min_int && Int64.equal y (-1L) then Int64.min_int
  else Int64.div x y

(* Four-corner evaluation over the sign-split divisor range.  x/y is
   monotone in x for a fixed-sign y and monotone in y away from zero, so
   on each zero-free divisor subrange the extrema are at the corners.
   The one non-monotone point is the min_int / -1 wrap: when the
   dividend may be min_int and the (negative) divisor subrange reaches
   -1, that subrange contributes the full width-w range instead.  For
   sub-64-bit widths [fit] catches the corresponding 2^(w-1) overflow. *)
let forward_div w a b =
  let a = clamp w a and b = clamp w b in
  let acc = ref None in
  let add lo hi =
    acc := Some (match !acc with None -> { lo; hi } | Some r -> join r { lo; hi })
  in
  let corners y_lo y_hi =
    let c1 = sdiv a.lo y_lo and c2 = sdiv a.lo y_hi in
    let c3 = sdiv a.hi y_lo and c4 = sdiv a.hi y_hi in
    add (min4 c1 c2 c3 c4) (max4 c1 c2 c3 c4)
  in
  let bp_lo = if Int64.compare b.lo 1L > 0 then b.lo else 1L in
  if Int64.compare bp_lo b.hi <= 0 then corners bp_lo b.hi;
  if contains b 0L then add 0L 0L;
  let bn_hi = if Int64.compare b.hi (-1L) < 0 then b.hi else -1L in
  if Int64.compare b.lo bn_hi <= 0 then
    if Int64.equal a.lo Int64.min_int && Int64.equal bn_hi (-1L) then
      add (full w).lo (full w).hi
    else corners b.lo bn_hi;
  match !acc with
  | None -> const 0L (* unreachable: b is non-empty *)
  | Some r -> fit w (Some r.lo, Some r.hi)

let forward_rem w a b =
  let a = clamp w a and b = clamp w b in
  let same_quotient c =
    (* x rem c = x - (x/c)*c is exact and monotone in x while the
       truncated quotient stays constant over the dividend range. *)
    let q = sdiv a.lo c in
    if Int64.equal q (sdiv a.hi c) then begin
      let base = Int64.mul q c in
      Some { lo = Int64.sub a.lo base; hi = Int64.sub a.hi base }
    end
    else None
  in
  let by_magnitude () =
    match abs_bound b with
    | None -> full w
    | Some 0L -> const 0L
    | Some k ->
      let k1 = Int64.sub k 1L in
      let lo = if Int64.compare a.lo 0L >= 0 then 0L else max a.lo (Int64.neg k1) in
      let hi = if Int64.compare a.hi 0L <= 0 then 0L else min a.hi k1 in
      { lo; hi }
  in
  match is_const b with
  | Some 0L -> const 0L (* x rem 0 = 0 in this ISA *)
  | Some c when Int64.equal c 1L || Int64.equal c (-1L) -> const 0L
  | Some c when not (Int64.equal a.lo Int64.min_int) || Int64.compare c 0L > 0
    -> (
    match same_quotient c with Some r -> r | None -> by_magnitude ())
  | _ -> by_magnitude ()

(* Smallest [2^k - 1] covering a non-negative value. *)
let pow2_mask_above x =
  let rec go m = if Int64.compare m x >= 0 then m else go (Int64.add (Int64.mul m 2L) 1L) in
  if Int64.compare x 0L < 0 then invalid_arg "pow2_mask_above"
  else if Int64.compare x 0x3FFF_FFFF_FFFF_FFFFL > 0 then Int64.max_int
  else go 0L

let forward_and w a b =
  let a = clamp w a and b = clamp w b in
  (* AND with all-ones is the identity (the BIC/AND move idioms). *)
  if equal b (const (-1L)) then a
  else if equal a (const (-1L)) then b
  else
    let nonneg i = Int64.compare i.lo 0L >= 0 in
    if nonneg a && nonneg b then { lo = 0L; hi = min a.hi b.hi }
    else if nonneg a then { lo = 0L; hi = a.hi }
    else if nonneg b then { lo = 0L; hi = b.hi }
    else full w

let forward_or w a b =
  let a = clamp w a and b = clamp w b in
  (* OR with zero is the register-move idiom; keep it exact so ranges do
     not widen through moves. *)
  if equal b (const 0L) then a
  else if equal a (const 0L) then b
  else if Int64.compare a.lo 0L >= 0 && Int64.compare b.lo 0L >= 0 then
    { lo = max a.lo b.lo; hi = pow2_mask_above (max a.hi b.hi) }
  else full w

let forward_xor w a b =
  let a = clamp w a and b = clamp w b in
  if equal b (const 0L) then a
  else if equal a (const 0L) then b
  else if Int64.compare a.lo 0L >= 0 && Int64.compare b.lo 0L >= 0 then
    { lo = 0L; hi = pow2_mask_above (max a.hi b.hi) }
  else full w

let forward_bic w a b =
  let a = clamp w a and b = clamp w b in
  ignore b;
  if Int64.compare a.lo 0L >= 0 then { lo = 0L; hi = a.hi } else full w

let shift_range b =
  (* The hardware uses the low 6 bits of the amount; only a range already
     within [0, 63] is predictable. *)
  if Int64.compare b.lo 0L >= 0 && Int64.compare b.hi 63L <= 0 then
    Some (Int64.to_int b.lo, Int64.to_int b.hi)
  else None

let forward_sll w a b =
  let a = clamp w a in
  match shift_range b with
  | None -> full w
  | Some (s1, s2) -> (
    match (shl_ovf a.lo s1, shl_ovf a.lo s2, shl_ovf a.hi s1, shl_ovf a.hi s2) with
    | Some c1, Some c2, Some c3, Some c4 ->
      fit w (Some (min4 c1 c2 c3 c4), Some (max4 c1 c2 c3 c4))
    | _ -> full w)

let forward_srl w a b =
  let a0 = clamp w a in
  (* The largest w-bit unsigned pattern shifted right by [s >= 1]; for W64
     the pattern 2^64-1 does not fit int64, but its shift does. *)
  let top_shifted s =
    match w with
    | Width.W64 -> Int64.shift_right_logical (-1L) s
    | _ -> Int64.shift_right_logical (unsigned_max w) s
  in
  match shift_range b with
  | None -> full w
  | Some (s1, _) ->
    let shifted smin =
      if smin >= 1 then { lo = 0L; hi = top_shifted smin } else a0
    in
    if s1 >= 1 then shifted s1
    else join a0 (shifted 1) (* amount may be 0 (identity) or >= 1 *)

let forward_sra w a b =
  let a = clamp w a in
  match shift_range b with
  | None -> full w
  | Some (s1, s2) ->
    let c1 = Int64.shift_right a.lo s1
    and c2 = Int64.shift_right a.lo s2
    and c3 = Int64.shift_right a.hi s1
    and c4 = Int64.shift_right a.hi s2 in
    { lo = min4 c1 c2 c3 c4; hi = max4 c1 c2 c3 c4 }

let forward_alu op w a b =
  match op with
  | Instr.Add -> forward_add w a b
  | Instr.Sub -> forward_sub w a b
  | Instr.Mul -> forward_mul w a b
  | Instr.Div -> forward_div w a b
  | Instr.Rem -> forward_rem w a b
  | Instr.And -> forward_and w a b
  | Instr.Or -> forward_or w a b
  | Instr.Xor -> forward_xor w a b
  | Instr.Bic -> forward_bic w a b
  | Instr.Sll -> forward_sll w a b
  | Instr.Srl -> forward_srl w a b
  | Instr.Sra -> forward_sra w a b

let forward_cmp = bool

let forward_cmp_op op w a b =
  let exact =
    subset a (full w) && subset b (full w)
    && (match op with
       | Instr.Ceq | Instr.Clt | Instr.Cle -> true
       | Instr.Cult | Instr.Cule ->
         Int64.compare a.lo 0L >= 0 && Int64.compare b.lo 0L >= 0)
  in
  if not exact then bool
  else
    match op with
    | Instr.Ceq ->
      if Int64.equal a.lo a.hi && Int64.equal b.lo b.hi && Int64.equal a.lo b.lo
      then const 1L
      else if meet a b = None then const 0L
      else bool
    | Instr.Clt | Instr.Cult ->
      if Int64.compare a.hi b.lo < 0 then const 1L
      else if Int64.compare a.lo b.hi >= 0 then const 0L
      else bool
    | Instr.Cle | Instr.Cule ->
      if Int64.compare a.hi b.lo <= 0 then const 1L
      else if Int64.compare a.lo b.hi > 0 then const 0L
      else bool

let forward_msk w a =
  match w with
  | Width.W64 -> a
  | _ ->
    if Int64.compare a.lo 0L >= 0 && Int64.compare a.hi (unsigned_max w) <= 0
    then a
    else zero_extended w

let forward_sext w a = clamp w a

let forward_load w ~signed =
  if signed || Width.equal w Width.W64 then full w else zero_extended w

let forward_cmov w ~old ~src = join old (clamp w src)

(* --- branch refinement ---------------------------------------------------- *)

let refine_cond c i ~taken =
  let cond = if taken then c else (
    match c with
    | Instr.Eq -> Instr.Ne
    | Instr.Ne -> Instr.Eq
    | Instr.Lt -> Instr.Ge
    | Instr.Le -> Instr.Gt
    | Instr.Gt -> Instr.Le
    | Instr.Ge -> Instr.Lt)
  in
  match cond with
  | Instr.Eq -> meet i (const 0L)
  | Instr.Ne ->
    if Int64.equal i.lo 0L && Int64.equal i.hi 0L then None
    else if Int64.equal i.lo 0L then Some { i with lo = 1L }
    else if Int64.equal i.hi 0L then Some { i with hi = -1L }
    else Some i
  | Instr.Lt -> meet i { lo = Int64.min_int; hi = -1L }
  | Instr.Le -> meet i { lo = Int64.min_int; hi = 0L }
  | Instr.Gt -> meet i { lo = 1L; hi = Int64.max_int }
  | Instr.Ge -> meet i { lo = 0L; hi = Int64.max_int }

(* A compare refines its operands only when truncation to the compare width
   is the identity on both ranges, and (for unsigned compares) when both
   are known non-negative so that unsigned and signed orders agree. *)
let cmp_refinable op w ~lhs ~rhs =
  subset lhs (full w) && subset rhs (full w)
  && (match op with
     | Instr.Ceq | Instr.Clt | Instr.Cle -> true
     | Instr.Cult | Instr.Cule ->
       Int64.compare lhs.lo 0L >= 0 && Int64.compare rhs.lo 0L >= 0)

let refine_cmp_lhs op w ~lhs ~rhs ~holds =
  if not (cmp_refinable op w ~lhs ~rhs) then Some lhs
  else
    match (op, holds) with
    | (Instr.Ceq, true) -> meet lhs rhs
    | (Instr.Ceq, false) ->
      if Int64.equal rhs.lo rhs.hi then
        if Int64.equal lhs.lo rhs.lo && Int64.equal lhs.hi rhs.lo then None
        else if Int64.equal lhs.lo rhs.lo then Some { lhs with lo = Int64.add lhs.lo 1L }
        else if Int64.equal lhs.hi rhs.lo then Some { lhs with hi = Int64.sub lhs.hi 1L }
        else Some lhs
      else Some lhs
    | (Instr.Clt | Instr.Cult), true ->
      if Int64.equal rhs.hi Int64.min_int then None
      else meet lhs { lo = Int64.min_int; hi = Int64.sub rhs.hi 1L }
    | (Instr.Clt | Instr.Cult), false -> meet lhs { lo = rhs.lo; hi = Int64.max_int }
    | (Instr.Cle | Instr.Cule), true -> meet lhs { lo = Int64.min_int; hi = rhs.hi }
    | (Instr.Cle | Instr.Cule), false ->
      if Int64.equal rhs.lo Int64.max_int then None
      else meet lhs { lo = Int64.add rhs.lo 1L; hi = Int64.max_int }

let refine_cmp_rhs op w ~lhs ~rhs ~holds =
  if not (cmp_refinable op w ~lhs ~rhs) then Some rhs
  else
    match (op, holds) with
    | (Instr.Ceq, true) -> meet rhs lhs
    | (Instr.Ceq, false) ->
      if Int64.equal lhs.lo lhs.hi then
        if Int64.equal rhs.lo lhs.lo && Int64.equal rhs.hi lhs.lo then None
        else if Int64.equal rhs.lo lhs.lo then Some { rhs with lo = Int64.add rhs.lo 1L }
        else if Int64.equal rhs.hi lhs.lo then Some { rhs with hi = Int64.sub rhs.hi 1L }
        else Some rhs
      else Some rhs
    | (Instr.Clt | Instr.Cult), true ->
      if Int64.equal lhs.lo Int64.max_int then None
      else meet rhs { lo = Int64.add lhs.lo 1L; hi = Int64.max_int }
    | (Instr.Clt | Instr.Cult), false -> meet rhs { lo = Int64.min_int; hi = lhs.hi }
    | (Instr.Cle | Instr.Cule), true -> meet rhs { lo = lhs.lo; hi = Int64.max_int }
    | (Instr.Cle | Instr.Cule), false ->
      if Int64.equal lhs.hi Int64.min_int then None
      else meet rhs { lo = Int64.min_int; hi = Int64.sub lhs.hi 1L }

let pp ppf i =
  if equal i top then Format.pp_print_string ppf "<T>"
  else Format.fprintf ppf "<%Ld,%Ld>" i.lo i.hi

let to_string i = Format.asprintf "%a" pp i
