(* Unit and property tests for Mpicd_buf.Buf. *)

module Buf = Mpicd_buf.Buf

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let test_create_zeroed () =
  let b = Buf.create 17 in
  check_int "length" 17 (Buf.length b);
  for i = 0 to 16 do
    check_int "zero" 0 (Buf.get_u8 b i)
  done

let test_create_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Buf.create: negative length")
    (fun () -> ignore (Buf.create (-1)))

let test_set_get () =
  let b = Buf.create 8 in
  Buf.set b 3 'x';
  Alcotest.(check char) "get" 'x' (Buf.get b 3);
  Buf.set_u8 b 4 0x1ff;
  check_int "u8 masked" 0xff (Buf.get_u8 b 4)

let test_bounds () =
  let b = Buf.create 4 in
  let expect_invalid f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  expect_invalid (fun () -> Buf.get b 4);
  expect_invalid (fun () -> Buf.get b (-1));
  expect_invalid (fun () -> Buf.get_i32 b 1);
  expect_invalid (fun () -> Buf.set_i64 b 0 1L);
  expect_invalid (fun () -> Buf.sub b ~pos:2 ~len:3);
  expect_invalid (fun () -> Buf.sub b ~pos:(-1) ~len:2)

let test_i32_roundtrip () =
  let b = Buf.create 16 in
  let values = [ 0l; 1l; -1l; Int32.max_int; Int32.min_int; 0x12345678l ] in
  List.iter
    (fun v ->
      Buf.set_i32 b 5 v;
      Alcotest.(check int32) "i32" v (Buf.get_i32 b 5))
    values

let test_i32_little_endian () =
  let b = Buf.create 4 in
  Buf.set_i32 b 0 0x04030201l;
  check_int "byte0" 1 (Buf.get_u8 b 0);
  check_int "byte1" 2 (Buf.get_u8 b 1);
  check_int "byte2" 3 (Buf.get_u8 b 2);
  check_int "byte3" 4 (Buf.get_u8 b 3)

let test_i64_roundtrip () =
  let b = Buf.create 16 in
  let values =
    [ 0L; 1L; -1L; Int64.max_int; Int64.min_int; 0x0123456789ABCDEFL ]
  in
  List.iter
    (fun v ->
      Buf.set_i64 b 7 v;
      Alcotest.(check int64) "i64" v (Buf.get_i64 b 7))
    values

let test_f64_roundtrip () =
  let b = Buf.create 8 in
  let values = [ 0.; 1.5; -3.25; Float.max_float; Float.min_float; infinity ] in
  List.iter
    (fun v ->
      Buf.set_f64 b 0 v;
      Alcotest.(check (float 0.)) "f64" v (Buf.get_f64 b 0))
    values;
  Buf.set_f64 b 0 nan;
  Alcotest.(check bool) "nan" true (Float.is_nan (Buf.get_f64 b 0))

let test_f32_roundtrip () =
  let b = Buf.create 4 in
  List.iter
    (fun v ->
      Buf.set_f32 b 0 v;
      Alcotest.(check (float 0.)) "f32" v (Buf.get_f32 b 0))
    [ 0.; 1.5; -2.25; 1024.0 ]

let test_sub_aliases () =
  let b = Buf.create 10 in
  let s = Buf.sub b ~pos:2 ~len:4 in
  Buf.set s 0 'a';
  Alcotest.(check char) "aliased write" 'a' (Buf.get b 2);
  check_int "sub length" 4 (Buf.length s);
  Alcotest.(check bool) "overlaps" true (Buf.overlaps b s);
  Alcotest.(check bool) "not same memory" false (Buf.same_memory b s);
  Alcotest.(check bool) "same memory reflexive" true (Buf.same_memory s s)

let test_blit () =
  let src = Buf.of_string "hello world" in
  let dst = Buf.create 11 in
  Buf.blit ~src ~src_pos:0 ~dst ~dst_pos:0 ~len:11;
  check_str "full blit" "hello world" (Buf.to_string dst);
  Buf.blit ~src ~src_pos:6 ~dst ~dst_pos:0 ~len:5;
  check_str "partial blit" "world world" (Buf.to_string dst)

let test_blit_overlapping () =
  let b = Buf.of_string "abcdef" in
  Buf.blit ~src:b ~src_pos:0 ~dst:b ~dst_pos:2 ~len:4;
  check_str "memmove forward" "ababcd" (Buf.to_string b);
  let b2 = Buf.of_string "abcdef" in
  Buf.blit ~src:b2 ~src_pos:2 ~dst:b2 ~dst_pos:0 ~len:4;
  check_str "memmove backward" "cdefef" (Buf.to_string b2)

let test_fill_copy_equal () =
  let a = Buf.create 5 in
  Buf.fill a 'z';
  check_str "fill" "zzzzz" (Buf.to_string a);
  let b = Buf.copy a in
  Alcotest.(check bool) "equal" true (Buf.equal a b);
  Buf.set b 0 'y';
  Alcotest.(check bool) "not equal after write" false (Buf.equal a b);
  Alcotest.(check bool) "copy is fresh memory" false (Buf.overlaps a b)

let test_equal_length_mismatch () =
  let a = Buf.of_string "abc" and b = Buf.of_string "abcd" in
  Alcotest.(check bool) "different lengths" false (Buf.equal a b)

let test_concat () =
  let parts = [ Buf.of_string "ab"; Buf.create 0; Buf.of_string "cde" ] in
  check_str "concat" "abcde" (Buf.to_string (Buf.concat parts));
  check_int "concat empty" 0 (Buf.length (Buf.concat []))

let test_string_roundtrip () =
  let s = "The quick brown fox \x00\x01\xff" in
  check_str "roundtrip" s (Buf.to_string (Buf.of_string s))

let test_blit_from_string () =
  let dst = Buf.create 6 in
  Buf.blit_from_string "xxhellozz" ~src_pos:2 ~dst ~dst_pos:1 ~len:5;
  check_str "from string" "\000hello" (Buf.to_string dst)

let test_blit_to_bytes () =
  let src = Buf.of_string "abcdef" in
  let dst = Bytes.make 4 '.' in
  Buf.blit_to_bytes ~src ~src_pos:1 ~dst ~dst_pos:1 ~len:3;
  check_str "to bytes" ".bcd" (Bytes.to_string dst)

let test_hexdump () =
  let b = Buf.of_string "AB" in
  let dump = Buf.hexdump b in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "hex bytes shown" true (contains dump "41 42");
  Alcotest.(check bool) "ascii shown" true (contains dump "AB");
  let big = Buf.create 1000 in
  Alcotest.(check bool) "truncation note" true
    (contains (Buf.hexdump ~max_bytes:32 big) "more bytes")

(* Property tests *)

let prop_blit_roundtrip =
  QCheck.Test.make ~name:"buf: string->buf->string roundtrip" ~count:200
    QCheck.(string_of_size Gen.(0 -- 512))
    (fun s -> Buf.to_string (Buf.of_string s) = s)

let prop_sub_consistent =
  QCheck.Test.make ~name:"buf: sub matches String.sub" ~count:200
    QCheck.(
      pair (string_of_size Gen.(1 -- 256)) (pair small_nat small_nat))
    (fun (s, (a, b)) ->
      let n = String.length s in
      let pos = a mod n in
      let len = b mod (n - pos + 1) in
      Buf.to_string (Buf.sub (Buf.of_string s) ~pos ~len) = String.sub s pos len)

let prop_i64_any =
  QCheck.Test.make ~name:"buf: i64 roundtrip" ~count:500 QCheck.int64
    (fun v ->
      let b = Buf.create 8 in
      Buf.set_i64 b 0 v;
      Buf.get_i64 b 0 = v)

let prop_concat_length =
  QCheck.Test.make ~name:"buf: concat length is sum" ~count:100
    QCheck.(list (string_of_size Gen.(0 -- 64)))
    (fun parts ->
      let bufs = List.map Buf.of_string parts in
      Buf.length (Buf.concat bufs)
      = List.fold_left (fun acc s -> acc + String.length s) 0 parts)

(* Differential properties: the memmove/memcpy/memcmp stubs and the
   word-wide scalar accessors against the byte-wise versions kept in
   Buf_ref, including the exceptions raised on out-of-range
   arguments. *)

let outcome f =
  match f () with
  | v -> Ok v
  | exception Invalid_argument msg -> Error msg

(* A base of [n] pattern bytes. *)
let patterned n seed =
  let b = Buf.create n in
  for i = 0 to n - 1 do
    Buf.set_u8 b i ((i * 7) + seed)
  done;
  b

(* Run [f] against the production and the reference blit on twin
   copies of one base and compare exceptions and resulting bytes. *)
let same_blit ~n ~seed ~two_bases ~src_view ~dst_view ~src_pos ~dst_pos ~len =
  let run blit =
    let base = patterned n seed in
    let other = if two_bases then patterned n (seed + 1) else base in
    let view b (pos, l) = Buf.sub b ~pos ~len:l in
    let r =
      outcome (fun () ->
          blit ~src:(view base src_view) ~src_pos ~dst:(view other dst_view)
            ~dst_pos ~len)
    in
    (r, Buf.to_string base, Buf.to_string other)
  in
  run Buf.blit = run Buf_ref.blit

let gen_view n =
  QCheck.Gen.(
    int_bound (n - 1) >>= fun pos -> map (fun l -> (pos, l)) (int_bound (n - pos)))

let prop_blit_matches_reference =
  let n = 400 in
  QCheck.Test.make ~name:"buf: blit = byte-wise reference (slices, overlap, range)"
    ~count:2000
    QCheck.(
      make
        ~print:(fun (two, ((sp, sl), (dp, dl)), (a, b, len)) ->
          Printf.sprintf "two_bases=%b src=(%d,%d) dst=(%d,%d) src_pos=%d dst_pos=%d len=%d"
            two sp sl dp dl a b len)
        Gen.(
          triple bool (pair (gen_view n) (gen_view n))
            (triple (-2 -- 310) (-2 -- 310) (-2 -- 300))))
    (fun (two_bases, (src_view, dst_view), (src_pos, dst_pos, len)) ->
      same_blit ~n ~seed:3 ~two_bases ~src_view ~dst_view ~src_pos ~dst_pos ~len)

let test_blit_large_matches_reference () =
  let n = 300_000 in
  List.iter
    (fun (two_bases, src_off, dst_off, len) ->
      Alcotest.(check bool)
        (Printf.sprintf "blit %d -> %d len %d two_bases=%b" src_off dst_off len
           two_bases)
        true
        (same_blit ~n ~seed:5 ~two_bases ~src_view:(src_off, n - src_off)
           ~dst_view:(dst_off, n - dst_off) ~src_pos:0 ~dst_pos:0 ~len))
    [
      (true, 3, 11, 65536);
      (false, 0, 4097, 65536);
      (false, 4097, 0, 65536);
      (false, 1, 7, 150_001);
      (false, 100_003, 17, 150_001);
      (true, 0, 0, 299_999);
    ]

let prop_scalars_match_reference =
  QCheck.Test.make ~name:"buf: scalar accessors = byte-wise reference (unaligned)"
    ~count:1000
    QCheck.(quad (int_bound 7) (-3 -- 28) int64 small_nat)
    (fun (view_off, i, v, seed) ->
      let pair () =
        let a = Buf.sub (patterned 40 seed) ~pos:view_off ~len:24 in
        let b = Buf.sub (patterned 40 seed) ~pos:view_off ~len:24 in
        (a, b)
      in
      let same_get get ref_get =
        let a, _ = pair () in
        outcome (fun () -> get a i) = outcome (fun () -> ref_get a i)
      in
      let same_set set ref_set x =
        let a, b = pair () in
        outcome (fun () -> set a i x) = outcome (fun () -> ref_set b i x)
        && Buf.equal a b
      in
      let v32 = Int64.to_int32 v and f = Int64.float_of_bits v in
      let bits32 x = Result.map Int32.bits_of_float x
      and bits64 x = Result.map Int64.bits_of_float x in
      same_get Buf.get_i32 Buf_ref.get_i32
      && same_get Buf.get_i64 Buf_ref.get_i64
      && (let a, _ = pair () in
          bits64 (outcome (fun () -> Buf.get_f64 a i))
          = bits64 (outcome (fun () -> Buf_ref.get_f64 a i)))
      && (let a, _ = pair () in
          bits32 (outcome (fun () -> Buf.get_f32 a i))
          = bits32 (outcome (fun () -> Buf_ref.get_f32 a i)))
      && same_set Buf.set_i32 Buf_ref.set_i32 v32
      && same_set Buf.set_i64 Buf_ref.set_i64 v
      && same_set Buf.set_f64 Buf_ref.set_f64 f
      && same_set Buf.set_f32 Buf_ref.set_f32 (Int32.float_of_bits v32))

let prop_strings_match_reference =
  QCheck.Test.make
    ~name:"buf: to/of_string, string/bytes blits, equal = byte-wise reference"
    ~count:1000
    QCheck.(
      pair (string_of_size Gen.(0 -- 300))
        (quad (int_bound 8) (-2 -- 310) (-2 -- 310) (-2 -- 300)))
    (fun (s, (view_off, src_pos, dst_pos, len)) ->
      let n = String.length s in
      let view_off = min view_off n in
      let view b = Buf.sub b ~pos:view_off ~len:(n - view_off) in
      let strings_ok =
        Buf.to_string (Buf.of_string s) = s
        && Buf.to_string (view (Buf.of_string s))
           = Buf_ref.to_string (view (Buf_ref.of_string s))
      in
      let from_string_ok =
        let a = Buf.of_string s and b = Buf.of_string s in
        outcome (fun () -> Buf.blit_from_string s ~src_pos ~dst:(view a) ~dst_pos ~len)
        = outcome (fun () ->
              Buf_ref.blit_from_string s ~src_pos ~dst:(view b) ~dst_pos ~len)
        && Buf.to_string a = Buf_ref.to_string b
      in
      let to_bytes_ok =
        let src = view (Buf.of_string s) in
        let a = Bytes.make n '.' and b = Bytes.make n '.' in
        outcome (fun () -> Buf.blit_to_bytes ~src ~src_pos ~dst:a ~dst_pos ~len)
        = outcome (fun () -> Buf_ref.blit_to_bytes ~src ~src_pos ~dst:b ~dst_pos ~len)
        && Bytes.equal a b
      in
      let equal_ok =
        let a = view (Buf.of_string s) in
        let flipped = Buf.copy a in
        if Buf.length flipped > 0 then begin
          let k = abs len mod Buf.length flipped in
          Buf.set_u8 flipped k (Buf.get_u8 flipped k lxor 1)
        end;
        let cases = [ (a, Buf.copy a); (a, flipped); (a, Buf.of_string s) ] in
        List.for_all (fun (x, y) -> Buf.equal x y = Buf_ref.equal x y) cases
        && Buf.equal (Buf.copy a) (Buf_ref.copy a)
        && Buf.equal
             (Buf.concat [ a; Buf.of_string s; a ])
             (Buf_ref.concat [ a; Buf.of_string s; a ])
      in
      strings_ok && from_string_ok && to_bytes_ok && equal_ok)

let test_fill_periodic () =
  List.iter
    (fun (n, period) ->
      let b = Buf.sub (Buf.create (n + 3)) ~pos:3 ~len:n in
      Buf.fill_periodic b ~period (fun i -> (i * 7) + 9);
      for i = 0 to n - 1 do
        check_int (Printf.sprintf "n=%d period=%d byte %d" n period i)
          ((((i mod period) * 7) + 9) land 0xff) (Buf.get_u8 b i)
      done)
    [ (0, 4); (1, 1); (3, 5); (5, 5); (9, 3); (256, 7); (1000, 256); (70_001, 256) ];
  Alcotest.check_raises "period 0"
    (Invalid_argument "Buf.fill_periodic: period 0 is not positive")
    (fun () -> Buf.fill_periodic (Buf.create 4) ~period:0 Fun.id)

let suite =
  let tc = Alcotest.test_case in
  ( "buf",
    [
      tc "create zeroed" `Quick test_create_zeroed;
      tc "create negative" `Quick test_create_negative;
      tc "set/get" `Quick test_set_get;
      tc "bounds checking" `Quick test_bounds;
      tc "i32 roundtrip" `Quick test_i32_roundtrip;
      tc "i32 little-endian layout" `Quick test_i32_little_endian;
      tc "i64 roundtrip" `Quick test_i64_roundtrip;
      tc "f64 roundtrip" `Quick test_f64_roundtrip;
      tc "f32 roundtrip" `Quick test_f32_roundtrip;
      tc "sub aliases storage" `Quick test_sub_aliases;
      tc "blit" `Quick test_blit;
      tc "blit overlapping" `Quick test_blit_overlapping;
      tc "fill/copy/equal" `Quick test_fill_copy_equal;
      tc "equal length mismatch" `Quick test_equal_length_mismatch;
      tc "concat" `Quick test_concat;
      tc "string roundtrip" `Quick test_string_roundtrip;
      tc "blit_from_string" `Quick test_blit_from_string;
      tc "blit_to_bytes" `Quick test_blit_to_bytes;
      tc "hexdump" `Quick test_hexdump;
      QCheck_alcotest.to_alcotest prop_blit_roundtrip;
      QCheck_alcotest.to_alcotest prop_sub_consistent;
      QCheck_alcotest.to_alcotest prop_i64_any;
      QCheck_alcotest.to_alcotest prop_concat_length;
      QCheck_alcotest.to_alcotest prop_blit_matches_reference;
      tc "blit >= 64 KiB = reference" `Quick test_blit_large_matches_reference;
      QCheck_alcotest.to_alcotest prop_scalars_match_reference;
      QCheck_alcotest.to_alcotest prop_strings_match_reference;
      tc "fill_periodic" `Quick test_fill_periodic;
    ] )
