(* Byte-wise reference versions of the bulk and scalar operations of
   Mpicd_buf.Buf, as they were before those moved onto C memmove /
   memcpy / memcmp stubs and word-wide bigstring primitives.  The
   differential properties in test_buf.ml compare the production code
   against these. *)

module Buf = Mpicd_buf.Buf

let check (t : Buf.t) i n =
  if i < 0 || i + n > t.len then
    invalid_arg
      (Printf.sprintf "Buf: offset %d (+%d) out of range (len %d)" i n t.len)

let create n =
  if n < 0 then invalid_arg "Buf.create: negative length";
  let base = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n in
  Bigarray.Array1.fill base '\000';
  { Buf.base; off = 0; len = n }

let get_i32 (t : Buf.t) i =
  check t i 4;
  let b k = Int32.of_int (Char.code (Bigarray.Array1.unsafe_get t.base (t.off + i + k))) in
  let ( ||| ) = Int32.logor and ( <<< ) = Int32.shift_left in
  b 0 ||| (b 1 <<< 8) ||| (b 2 <<< 16) ||| (b 3 <<< 24)

let set_i32 (t : Buf.t) i v =
  check t i 4;
  let put k x =
    Bigarray.Array1.unsafe_set t.base (t.off + i + k)
      (Char.unsafe_chr (Int32.to_int x land 0xff))
  in
  put 0 v;
  put 1 (Int32.shift_right_logical v 8);
  put 2 (Int32.shift_right_logical v 16);
  put 3 (Int32.shift_right_logical v 24)

let get_i64 (t : Buf.t) i =
  check t i 8;
  let b k = Int64.of_int (Char.code (Bigarray.Array1.unsafe_get t.base (t.off + i + k))) in
  let ( ||| ) = Int64.logor and ( <<< ) = Int64.shift_left in
  b 0 ||| (b 1 <<< 8) ||| (b 2 <<< 16) ||| (b 3 <<< 24)
  ||| (b 4 <<< 32) ||| (b 5 <<< 40) ||| (b 6 <<< 48) ||| (b 7 <<< 56)

let set_i64 (t : Buf.t) i v =
  check t i 8;
  let put k x =
    Bigarray.Array1.unsafe_set t.base (t.off + i + k)
      (Char.unsafe_chr (Int64.to_int x land 0xff))
  in
  for k = 0 to 7 do
    put k (Int64.shift_right_logical v (8 * k))
  done

let get_f64 t i = Int64.float_of_bits (get_i64 t i)
let set_f64 t i v = set_i64 t i (Int64.bits_of_float v)
let get_f32 t i = Int32.float_of_bits (get_i32 t i)
let set_f32 t i v = set_i32 t i (Int32.bits_of_float v)

let blit ~(src : Buf.t) ~src_pos ~(dst : Buf.t) ~dst_pos ~len =
  check src src_pos len;
  check dst dst_pos len;
  let so = src.off + src_pos and d_o = dst.off + dst_pos in
  if len <= 64 && (src.base != dst.base || d_o <= so || d_o >= so + len) then
    for i = 0 to len - 1 do
      Bigarray.Array1.unsafe_set dst.base (d_o + i)
        (Bigarray.Array1.unsafe_get src.base (so + i))
    done
  else begin
    let s = Bigarray.Array1.sub src.base so len in
    let d = Bigarray.Array1.sub dst.base d_o len in
    Bigarray.Array1.blit s d
  end

let copy (t : Buf.t) =
  let dst = create t.len in
  blit ~src:t ~src_pos:0 ~dst ~dst_pos:0 ~len:t.len;
  dst

let equal (a : Buf.t) (b : Buf.t) =
  a.len = b.len
  &&
  let rec loop i =
    i >= a.len
    || Bigarray.Array1.unsafe_get a.base (a.off + i)
         = Bigarray.Array1.unsafe_get b.base (b.off + i)
       && loop (i + 1)
  in
  loop 0

let of_string s =
  let t = create (String.length s) in
  String.iteri (fun i c -> Bigarray.Array1.unsafe_set t.base i c) s;
  t

let to_string (t : Buf.t) =
  String.init t.len (fun i -> Bigarray.Array1.unsafe_get t.base (t.off + i))

let blit_from_string s ~src_pos ~(dst : Buf.t) ~dst_pos ~len =
  if src_pos < 0 || len < 0 || src_pos + len > String.length s then
    invalid_arg "Buf.blit_from_string: source range";
  check dst dst_pos len;
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set dst.base (dst.off + dst_pos + i)
      (String.unsafe_get s (src_pos + i))
  done

let blit_to_bytes ~(src : Buf.t) ~src_pos ~dst ~dst_pos ~len =
  check src src_pos len;
  if dst_pos < 0 || dst_pos + len > Bytes.length dst then
    invalid_arg "Buf.blit_to_bytes: destination range";
  for i = 0 to len - 1 do
    Bytes.unsafe_set dst (dst_pos + i)
      (Bigarray.Array1.unsafe_get src.base (src.off + src_pos + i))
  done

let concat parts =
  let total = List.fold_left (fun acc (p : Buf.t) -> acc + p.len) 0 parts in
  let dst = create total in
  let pos = ref 0 in
  List.iter
    (fun (p : Buf.t) ->
      blit ~src:p ~src_pos:0 ~dst ~dst_pos:!pos ~len:p.len;
      pos := !pos + p.len)
    parts;
  dst
