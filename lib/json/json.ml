type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* --- printing ------------------------------------------------------------- *)

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* 17 significant digits round-trip any finite double; JSON has no
   infinities or NaNs, so clamp those to null like most emitters.  A
   float token must keep a '.' or exponent, otherwise an integer-valued
   double (e.g. 1e15, whose %.17g form is a bare digit string) would
   re-parse as an [Int] and break the round-trip. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else begin
    let s = Printf.sprintf "%.17g" f in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"
  end

let to_string ?(indent = true) v =
  let b = Buffer.create 4096 in
  let pad n = if indent then Buffer.add_string b (String.make (2 * n) ' ') in
  let nl () = if indent then Buffer.add_char b '\n' in
  let rec go depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f ->
      if Float.is_nan f || Float.abs f = Float.infinity then
        Buffer.add_string b "null"
      else Buffer.add_string b (float_repr f)
    | Str s -> escape b s
    | Arr [] -> Buffer.add_string b "[]"
    | Arr xs ->
      Buffer.add_char b '[';
      nl ();
      List.iteri
        (fun i x ->
          if i > 0 then begin
            Buffer.add_char b ',';
            nl ()
          end;
          pad (depth + 1);
          go (depth + 1) x)
        xs;
      nl ();
      pad depth;
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj kvs ->
      Buffer.add_char b '{';
      nl ();
      List.iteri
        (fun i (k, x) ->
          if i > 0 then begin
            Buffer.add_char b ',';
            nl ()
          end;
          pad (depth + 1);
          escape b k;
          Buffer.add_char b ':';
          if indent then Buffer.add_char b ' ';
          go (depth + 1) x)
        kvs;
      nl ();
      pad depth;
      Buffer.add_char b '}'
  in
  go 0 v;
  if indent then Buffer.add_char b '\n';
  Buffer.contents b

(* --- parsing -------------------------------------------------------------- *)

type state = { s : string; mutable pos : int }

let fail st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.s
    &&
    match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some d when d = c -> st.pos <- st.pos + 1
  | _ -> fail st (Printf.sprintf "expected '%c'" c)

let literal st word v =
  if
    st.pos + String.length word <= String.length st.s
    && String.sub st.s st.pos (String.length word) = word
  then begin
    st.pos <- st.pos + String.length word;
    v
  end
  else fail st (Printf.sprintf "expected %s" word)

(* The four hex digits of a [\u] escape. *)
let hex4 st =
  if st.pos + 4 > String.length st.s then fail st "bad \\u escape";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> fail st "bad \\u escape"
  in
  let v = ref 0 in
  for i = 0 to 3 do
    v := (!v lsl 4) lor digit st.s.[st.pos + i]
  done;
  st.pos <- st.pos + 4;
  !v

(* The code point of a [\u] escape whose [\u] is already consumed: a
   high surrogate joins the escaped low surrogate that must follow it,
   and a surrogate on its own is an error. *)
let code_point st =
  let lone () = fail st "lone surrogate in \\u escape" in
  let hi = hex4 st in
  if hi < 0xD800 || hi > 0xDFFF then hi
  else if hi > 0xDBFF then lone ()
  else begin
    if
      not
        (st.pos + 2 <= String.length st.s
        && st.s.[st.pos] = '\\'
        && st.s.[st.pos + 1] = 'u')
    then lone ();
    st.pos <- st.pos + 2;
    let lo = hex4 st in
    if lo < 0xDC00 || lo > 0xDFFF then lone ();
    0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
  end

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.s then fail st "unterminated string";
    let c = st.s.[st.pos] in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents b
    | '\\' ->
      if st.pos >= String.length st.s then fail st "unterminated escape";
      let e = st.s.[st.pos] in
      st.pos <- st.pos + 1;
      (match e with
      | '"' -> Buffer.add_char b '"'
      | '\\' -> Buffer.add_char b '\\'
      | '/' -> Buffer.add_char b '/'
      | 'b' -> Buffer.add_char b '\b'
      | 'f' -> Buffer.add_char b '\012'
      | 'n' -> Buffer.add_char b '\n'
      | 'r' -> Buffer.add_char b '\r'
      | 't' -> Buffer.add_char b '\t'
      | 'u' -> Buffer.add_utf_8_uchar b (Uchar.of_int (code_point st))
      | _ -> fail st "bad escape");
      go ()
    | c -> Buffer.add_char b c; go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length st.s && is_num_char st.s.[st.pos]
  do
    st.pos <- st.pos + 1
  done;
  let tok = String.sub st.s start (st.pos - start) in
  match int_of_string_opt tok with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt tok with
    | Some f -> Float f
    | None -> fail st (Printf.sprintf "bad number %S" tok))

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
    expect st '{';
    skip_ws st;
    if peek st = Some '}' then begin
      expect st '}';
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          expect st ',';
          members ((k, v) :: acc)
        | Some '}' ->
          expect st '}';
          List.rev ((k, v) :: acc)
        | _ -> fail st "expected ',' or '}'"
      in
      Obj (members [])
    end
  | Some '[' ->
    expect st '[';
    skip_ws st;
    if peek st = Some ']' then begin
      expect st ']';
      Arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          expect st ',';
          elements (v :: acc)
        | Some ']' ->
          expect st ']';
          List.rev (v :: acc)
        | _ -> fail st "expected ',' or ']'"
      in
      Arr (elements [])
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> parse_number st

let of_string s =
  let st = { s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail st "trailing garbage";
  v

(* --- accessors ------------------------------------------------------------ *)

let member k = function
  | Obj kvs -> ( match List.assoc_opt k kvs with Some v -> v | None -> Null)
  | _ -> Null

let shape_error k what =
  raise (Parse_error (Printf.sprintf "member %S: expected %s" k what))

let get_int k v =
  match member k v with Int i -> i | _ -> shape_error k "an integer"

let get_float k v =
  match member k v with
  | Float f -> f
  | Int i -> float_of_int i
  | _ -> shape_error k "a number"

let get_string k v =
  match member k v with Str s -> s | _ -> shape_error k "a string"

let get_bool k v =
  match member k v with Bool b -> b | _ -> shape_error k "a boolean"

let get_list k v =
  match member k v with Arr xs -> xs | _ -> shape_error k "an array"
