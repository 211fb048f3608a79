(* Unit tests for the minimal JSON codec. *)

let roundtrip v = Json.parse_exn (Json.to_string v)

let test_roundtrip () =
  let v =
    Json.Obj
      [
        ("a", Json.Int 3);
        ("b", Json.Float 2.5);
        ("c", Json.List [ Json.Bool true; Json.Null; Json.String "x" ]);
        ("nested", Json.Obj [ ("empty", Json.List []) ]);
      ]
  in
  Helpers.check_bool "nested roundtrip" true (roundtrip v = v);
  Helpers.check_bool "empty obj" true (roundtrip (Json.Obj []) = Json.Obj []);
  (* indented printing parses back too *)
  Helpers.check_bool "indented roundtrip" true
    (Json.parse_exn (Json.to_string ~indent:2 v) = v)

let test_strings () =
  let s = "quote \" backslash \\ newline \n tab \t" in
  (match roundtrip (Json.String s) with
  | Json.String s' -> Alcotest.(check string) "escapes" s s'
  | _ -> Alcotest.fail "expected a string");
  (* \u escapes decode to UTF-8 *)
  match Json.parse_exn "\"\\u00e9A\"" with
  | Json.String s' -> Alcotest.(check string) "unicode" "\xc3\xa9A" s'
  | _ -> Alcotest.fail "expected a string"

let test_numbers () =
  Helpers.check_bool "int" true (Json.parse_exn "42" = Json.Int 42);
  Helpers.check_bool "negative" true (Json.parse_exn "-7" = Json.Int (-7));
  (match Json.parse_exn "1e3" with
  | Json.Float f -> Helpers.check_float "exponent" 1000. f
  | Json.Int i -> Helpers.check_int "exponent as int" 1000 i
  | _ -> Alcotest.fail "expected a number");
  (* integral floats print with a decimal point and parse as floats *)
  Helpers.check_bool "float keeps point" true
    (String.contains (Json.to_string (Json.Float 3.)) '.');
  (* so does a float whose 12 significant digits read back as an integer:
     the first print is already the fixed point *)
  List.iter
    (fun (f, text) ->
      Alcotest.(check string) (Printf.sprintf "%h prints" f) text
        (Json.to_string (Json.Float f));
      Alcotest.(check string) (Printf.sprintf "%h reprints" f) text
        (Json.to_string (Json.parse_exn text)))
    [
      (12345678901234.56789, "12345678901200.0");
      (1234.0000000000002, "1234.0");
      (2.5, "2.5");
      (1e300, "1e+300");
    ];
  Helpers.check_bool "nan prints as null" true
    (Json.to_string (Json.Float Float.nan) = "null")

let test_errors () =
  let bad s =
    match Json.parse s with Error _ -> true | Ok _ -> false
  in
  Helpers.check_bool "trailing garbage" true (bad "{} x");
  Helpers.check_bool "bare word" true (bad "hello");
  Helpers.check_bool "unterminated string" true (bad {|"abc|});
  Helpers.check_bool "missing colon" true (bad {|{"a" 1}|});
  Helpers.check_bool "trailing comma" true (bad "[1,2,]");
  Helpers.check_bool "empty input" true (bad "")

let test_accessors () =
  let v = Json.parse_exn {|{"xs":[1,2,3],"f":2.5,"ok":true,"s":"hi"}|} in
  Helpers.check_int "member list length" 3
    (List.length (Json.to_list (Option.get (Json.member "xs" v))));
  Helpers.check_bool "missing member" true (Json.member "nope" v = None);
  Helpers.check_bool "to_int on float" true
    (Json.to_int (Option.get (Json.member "f" v)) = None);
  Helpers.check_float "to_float on int coerces" 1.
    (Option.get
       (Json.to_float (List.hd (Json.to_list (Option.get (Json.member "xs" v))))));
  Helpers.check_bool "to_bool" true
    (Json.to_bool (Option.get (Json.member "ok" v)) = Some true);
  Helpers.check_bool "to_str" true
    (Json.to_str (Option.get (Json.member "s" v)) = Some "hi")

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "string escapes" `Quick test_strings;
    Alcotest.test_case "numbers" `Quick test_numbers;
    Alcotest.test_case "parse errors" `Quick test_errors;
    Alcotest.test_case "accessors" `Quick test_accessors;
  ]
