(* 32 bits per word: index arithmetic is a shift and a mask, where a
   63-bit packing would need genuine division on every bit access —
   measurably slower in the dataflow inner loops that bang on these. *)
type t = { words : int array; nbits : int }

let create nbits = { words = Array.make ((nbits + 31) / 32) 0; nbits }
let copy t = { t with words = Array.copy t.words }
let length t = t.nbits

let check t i =
  if i < 0 || i >= t.nbits then Fmt.invalid_arg "Bitset: index %d" i

let set t i =
  check t i;
  t.words.(i lsr 5) <- t.words.(i lsr 5) lor (1 lsl (i land 31))

let clear t i =
  check t i;
  t.words.(i lsr 5) <- t.words.(i lsr 5) land lnot (1 lsl (i land 31))

let mem t i =
  check t i;
  t.words.(i lsr 5) land (1 lsl (i land 31)) <> 0

let reset t = Array.fill t.words 0 (Array.length t.words) 0

let copy_into ~into src =
  Array.blit src.words 0 into.words 0 (Array.length src.words)

(* Plain loops: the dataflow fixpoints call these per edge per sweep, and
   a closure per call (or a polymorphic compare) costs more than the
   words it touches. *)
let union_into ~into src =
  let changed = ref false in
  for k = 0 to Array.length src.words - 1 do
    let nw = into.words.(k) lor src.words.(k) in
    if nw <> into.words.(k) then begin
      into.words.(k) <- nw;
      changed := true
    end
  done;
  !changed

let diff_into ~into src =
  for k = 0 to Array.length src.words - 1 do
    into.words.(k) <- into.words.(k) land lnot src.words.(k)
  done

let equal a b =
  a.nbits = b.nbits
  &&
  let rec from k = k < 0 || (a.words.(k) = b.words.(k) && from (k - 1)) in
  from (Array.length a.words - 1)

let iter t k =
  (* Word-skipping ascending walk: whole-zero words cost one test, and
     set bits are peeled low-to-high, so sparse sets cost their
     population rather than their capacity. *)
  Array.iteri
    (fun wi word ->
      let w = ref word in
      while !w <> 0 do
        let bit = !w land - !w in
        let rec log2 b acc = if b = 1 then acc else log2 (b lsr 1) (acc + 1) in
        k ((wi lsl 5) + log2 bit 0);
        w := !w land lnot bit
      done)
    t.words

let iter_inter a b k =
  for wi = 0 to Array.length a.words - 1 do
    let w = ref (a.words.(wi) land b.words.(wi)) in
    while !w <> 0 do
      let bit = !w land - !w in
      let rec log2 b acc = if b = 1 then acc else log2 (b lsr 1) (acc + 1) in
      k ((wi lsl 5) + log2 bit 0);
      w := !w land lnot bit
    done
  done

let elements t =
  let acc = ref [] in
  iter t (fun i -> acc := i :: !acc);
  List.rev !acc

let cardinal t =
  let n = ref 0 in
  Array.iter
    (fun w ->
      let w = ref w in
      while !w <> 0 do
        w := !w land (!w - 1);
        incr n
      done)
    t.words;
  !n
