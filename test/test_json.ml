(* Round-trip property tests for the hand-rolled JSON layer: every value
   the toolchain can emit must survive to_string/of_string exactly.  The
   string tests cover control characters, \u escapes and non-ASCII
   bytes; the float tests are bit-exact (via Int64.bits_of_float) and
   include -0., extreme magnitudes and subnormals.  These caught a real
   bug: integer-valued doubles >= 1e15 used to print as bare digit
   strings and re-parse as Int. *)

module J = Ogc_json.Json

let roundtrip v = J.of_string (J.to_string ~indent:false v)
let roundtrip_pretty v = J.of_string (J.to_string ~indent:true v)

(* --- generators ----------------------------------------------------------- *)

(* Byte strings over the full 0-255 range, biased toward the awkward
   region (control characters, quote, backslash, DEL, high bytes). *)
let arbitrary_bytes =
  let gen =
    QCheck.Gen.(
      string_size ~gen:(frequency
        [ (4, map Char.chr (int_range 0 31));
          (2, oneofl [ '"'; '\\'; '/'; '\127'; '\xc3'; '\xa9'; '\xff'; '\x00' ]);
          (6, printable) ])
        (int_bound 40))
  in
  QCheck.make ~print:String.escaped gen

(* Finite floats from raw bit patterns: uniform over the representation,
   so exponent extremes and subnormals actually occur. *)
let arbitrary_finite_float =
  let gen st =
    let rec go () =
      let bits =
        Int64.logxor (Random.State.int64 st Int64.max_int)
          (if Random.State.bool st then Int64.min_int else 0L)
      in
      let f = Int64.float_of_bits bits in
      if Float.is_finite f then f else go ()
    in
    go ()
  in
  QCheck.make ~print:(Printf.sprintf "%h") gen

let rec arbitrary_json_gen depth st =
  let open QCheck.Gen in
  let scalar =
    frequency
      [ (1, return J.Null);
        (1, map (fun b -> J.Bool b) bool);
        (3, map (fun i -> J.Int i) int);
        (3, map (fun f -> J.Float f) (QCheck.gen arbitrary_finite_float));
        (3, map (fun s -> J.Str s) (QCheck.gen arbitrary_bytes)) ]
  in
  if depth = 0 then scalar st
  else
    frequency
      [ (3, scalar);
        (1,
         map (fun xs -> J.Arr xs)
           (list_size (int_bound 5) (arbitrary_json_gen (depth - 1))));
        (1,
         map
           (fun kvs -> J.Obj kvs)
           (list_size (int_bound 5)
              (pair (QCheck.gen arbitrary_bytes)
                 (arbitrary_json_gen (depth - 1))))) ]
      st

let arbitrary_json =
  QCheck.make ~print:(J.to_string ~indent:true) (arbitrary_json_gen 3)

(* Structural equality with bit-exact floats (compare (=) conflates 0.
   and -0. and fails on identical NaNs; neither is what we test). *)
let rec json_equal a b =
  match (a, b) with
  | J.Float x, J.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | J.Arr xs, J.Arr ys ->
    List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | J.Obj xs, J.Obj ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && json_equal v1 v2)
         xs ys
  | _ -> a = b

(* --- properties ----------------------------------------------------------- *)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"strings round-trip byte-exactly" ~count:2000
    arbitrary_bytes (fun s -> roundtrip (J.Str s) = J.Str s)

let prop_float_roundtrip =
  QCheck.Test.make ~name:"finite floats round-trip bit-exactly" ~count:5000
    arbitrary_finite_float (fun f ->
      json_equal (roundtrip (J.Float f)) (J.Float f))

let prop_value_roundtrip =
  QCheck.Test.make ~name:"nested values round-trip (compact)" ~count:1000
    arbitrary_json (fun j -> json_equal (roundtrip j) j)

let prop_value_roundtrip_pretty =
  QCheck.Test.make ~name:"nested values round-trip (indented)" ~count:1000
    arbitrary_json (fun j -> json_equal (roundtrip_pretty j) j)

let prop_printer_deterministic =
  QCheck.Test.make ~name:"printer is deterministic after a round-trip"
    ~count:1000 arbitrary_json (fun j ->
      let s = J.to_string ~indent:false j in
      String.equal s (J.to_string ~indent:false (J.of_string s)))

(* --- directed edge cases --------------------------------------------------- *)

let check_float f =
  match roundtrip (J.Float f) with
  | J.Float g ->
    Alcotest.(check int64)
      (Printf.sprintf "%h" f)
      (Int64.bits_of_float f) (Int64.bits_of_float g)
  | other ->
    Alcotest.failf "%h re-parsed as %s, not Float" f
      (J.to_string ~indent:false other)

let test_float_edges () =
  List.iter check_float
    [ 0.; -0.; 1.; -1.; 0.1; 1e15; -1e15; 1e16; 9.007199254740993e15;
      1e308; -1e308; max_float; min_float; epsilon_float;
      Int64.float_of_bits 1L (* smallest subnormal *);
      Int64.float_of_bits 0x000fffffffffffffL (* largest subnormal *);
      4.9406564584124654e-324; 1.5; 3.14159265358979312; 2.5e-10 ]

let test_nonfinite_is_null () =
  (* NaN and the infinities have no JSON spelling; the printer documents
     that they degrade to null rather than emitting invalid JSON. *)
  List.iter
    (fun f ->
      Alcotest.(check string) "null" "null"
        (J.to_string ~indent:false (J.Float f)))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

let test_string_edges () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (String.escaped s) true
        (roundtrip (J.Str s) = J.Str s))
    [ ""; "\x00"; "\n\t\r\b\x0c"; "\"quoted\\\""; "caf\xc3\xa9"; "\xff\xfe";
      String.init 32 Char.chr; "ends with backslash \\" ]

let test_unicode_escape_parsing () =
  let parse s =
    match J.of_string s with J.Str v -> v | _ -> Alcotest.failf "not a string: %s" s
  in
  Alcotest.(check string) "\\u0041" "A" (parse "\"\\u0041\"");
  Alcotest.(check string) "\\u00e9" "\xc3\xa9" (parse "\"\\u00e9\"");
  Alcotest.(check string) "\\u2014" "\xe2\x80\x94" (parse "\"\\u2014\"");
  Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80"
    (parse "\"\\ud83d\\ude00\"");
  Alcotest.(check string) "escaped = raw UTF-8" "caf\xc3\xa9 \xe2\x80\x94 ok"
    (parse "\"caf\\u00e9 \\u2014 ok\"");
  Alcotest.(check string) "\\u000A" "\n" (parse "\"\\u000A\"");
  Alcotest.(check string) "mixed" "a\nb" (parse "\"a\\u000ab\"");
  List.iter
    (fun bad ->
      match J.of_string bad with
      | exception J.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted %s" bad)
    [ "\"\\ud800\""; "\"\\ud800x\""; "\"\\ud800\\u0041\""; "\"\\ude00\"";
      "\"\\u12g4\"" ];
  Alcotest.(check string) "short escapes" "\n\t\r\b\x0c\"\\/"
    (parse "\"\\n\\t\\r\\b\\f\\\"\\\\\\/\"")

let test_int_stays_int () =
  List.iter
    (fun i ->
      Alcotest.(check bool) (string_of_int i) true
        (roundtrip (J.Int i) = J.Int i))
    [ 0; 1; -1; max_int; min_int; 1_000_000_000_000_000 ]

let test_float_never_reparses_as_int () =
  (* The historical bug: %.17g prints integer-valued doubles >= 1e15
     without a decimal point. *)
  List.iter
    (fun f ->
      match roundtrip (J.Float f) with
      | J.Float _ -> ()
      | other ->
        Alcotest.failf "Float %g re-parsed as %s" f
          (J.to_string ~indent:false other))
    [ 1e15; 123456789012345678.; 2.305843009213694e18; 1e300 ]

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "json"
    [ ("roundtrip",
       [ qt prop_string_roundtrip; qt prop_float_roundtrip;
         qt prop_value_roundtrip; qt prop_value_roundtrip_pretty;
         qt prop_printer_deterministic ]);
      ("edge-cases",
       [ Alcotest.test_case "float edges" `Quick test_float_edges;
         Alcotest.test_case "non-finite prints null" `Quick
           test_nonfinite_is_null;
         Alcotest.test_case "string edges" `Quick test_string_edges;
         Alcotest.test_case "\\u escapes" `Quick test_unicode_escape_parsing;
         Alcotest.test_case "ints stay ints" `Quick test_int_stays_int;
         Alcotest.test_case "big floats stay floats" `Quick
           test_float_never_reparses_as_int ]) ]
