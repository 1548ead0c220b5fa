type bigstring =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { base : bigstring; off : int; len : int }

external memmove : bigstring -> int -> bigstring -> int -> int -> unit
  = "mpicd_buf_memmove" [@@noalloc]

external memset : bigstring -> int -> int -> char -> unit
  = "mpicd_buf_memset" [@@noalloc]

external memeq : bigstring -> int -> bigstring -> int -> int -> bool
  = "mpicd_buf_memcmp" [@@noalloc]

external memcpy_from_string : string -> int -> bigstring -> int -> int -> unit
  = "mpicd_buf_from_string" [@@noalloc]

external memcpy_to_bytes : bigstring -> int -> Bytes.t -> int -> int -> unit
  = "mpicd_buf_to_bytes" [@@noalloc]

external get32u : bigstring -> int -> int32 = "%caml_bigstring_get32u"
external get64u : bigstring -> int -> int64 = "%caml_bigstring_get64u"
external set32u : bigstring -> int -> int32 -> unit = "%caml_bigstring_set32u"
external set64u : bigstring -> int -> int64 -> unit = "%caml_bigstring_set64u"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"

let create_uninit n =
  if n < 0 then invalid_arg "Buf.create: negative length";
  { base = Bigarray.Array1.create Bigarray.char Bigarray.c_layout n; off = 0; len = n }

let create n =
  let t = create_uninit n in
  memset t.base 0 n '\000';
  t

let of_bigstring base = { base; off = 0; len = Bigarray.Array1.dim base }

let length t = t.len

let sub t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.len then
    invalid_arg
      (Printf.sprintf "Buf.sub: pos=%d len=%d out of range (buffer len %d)"
         pos len t.len);
  { base = t.base; off = t.off + pos; len }

let is_empty t = t.len = 0

let[@inline never] out_of_range t i n =
  invalid_arg
    (Printf.sprintf "Buf: offset %d (+%d) out of range (len %d)" i n t.len)

let[@inline] check t i n = if i < 0 || i + n > t.len then out_of_range t i n

let get t i =
  check t i 1;
  Bigarray.Array1.unsafe_get t.base (t.off + i)

let set t i c =
  check t i 1;
  Bigarray.Array1.unsafe_set t.base (t.off + i) c

let get_u8 t i = Char.code (get t i)
let set_u8 t i v = set t i (Char.chr (v land 0xff))

(* The primitives read and write in host order; the buffer format is
   little-endian on every host. *)
let[@inline] get_i32 t i =
  check t i 4;
  let v = get32u t.base (t.off + i) in
  if Sys.big_endian then bswap32 v else v

let[@inline] set_i32 t i v =
  check t i 4;
  set32u t.base (t.off + i) (if Sys.big_endian then bswap32 v else v)

let[@inline] get_i64 t i =
  check t i 8;
  let v = get64u t.base (t.off + i) in
  if Sys.big_endian then bswap64 v else v

let[@inline] set_i64 t i v =
  check t i 8;
  set64u t.base (t.off + i) (if Sys.big_endian then bswap64 v else v)

let get_f64 t i = Int64.float_of_bits (get_i64 t i)
let set_f64 t i v = set_i64 t i (Int64.bits_of_float v)
let get_f32 t i = Int32.float_of_bits (get_i32 t i)
let set_f32 t i v = set_i32 t i (Int32.bits_of_float v)

let blit ~src ~src_pos ~dst ~dst_pos ~len =
  check src src_pos len;
  check dst dst_pos len;
  memmove src.base (src.off + src_pos) dst.base (dst.off + dst_pos) len

let fill t c = memset t.base t.off t.len c

let fill_periodic t ~period f =
  if period <= 0 then
    invalid_arg (Printf.sprintf "Buf.fill_periodic: period %d is not positive" period);
  let head = min period t.len in
  for i = 0 to head - 1 do
    Bigarray.Array1.unsafe_set t.base (t.off + i) (Char.unsafe_chr (f i land 0xff))
  done;
  (* The filled prefix is always a whole number of periods, so copying
     it forward keeps byte [i] equal to byte [i mod period]. *)
  let filled = ref head in
  while !filled < t.len do
    let n = min !filled (t.len - !filled) in
    memmove t.base t.off t.base (t.off + !filled) n;
    filled := !filled + n
  done

let copy t =
  let dst = create_uninit t.len in
  memmove t.base t.off dst.base 0 t.len;
  dst

let equal a b = a.len = b.len && memeq a.base a.off b.base b.off a.len

let of_string s =
  let t = create_uninit (String.length s) in
  memcpy_from_string s 0 t.base 0 t.len;
  t

let to_string t =
  let b = Bytes.create t.len in
  memcpy_to_bytes t.base t.off b 0 t.len;
  Bytes.unsafe_to_string b

let blit_from_string s ~src_pos ~dst ~dst_pos ~len =
  if src_pos < 0 || len < 0 || src_pos + len > String.length s then
    invalid_arg "Buf.blit_from_string: source range";
  check dst dst_pos len;
  memcpy_from_string s src_pos dst.base (dst.off + dst_pos) len

let blit_to_bytes ~src ~src_pos ~dst ~dst_pos ~len =
  check src src_pos len;
  if dst_pos < 0 || dst_pos + len > Bytes.length dst then
    invalid_arg "Buf.blit_to_bytes: destination range";
  memcpy_to_bytes src.base (src.off + src_pos) dst dst_pos len

let concat parts =
  let total = List.fold_left (fun acc p -> acc + p.len) 0 parts in
  let dst = create_uninit total in
  ignore
    (List.fold_left
       (fun pos p ->
         memmove p.base p.off dst.base pos p.len;
         pos + p.len)
       0 parts);
  dst

let hexdump ?(max_bytes = 256) t =
  let n = min t.len max_bytes in
  let buf = Buffer.create (n * 4) in
  for row = 0 to (n - 1) / 16 do
    Buffer.add_string buf (Printf.sprintf "%08x  " (row * 16));
    for col = 0 to 15 do
      let i = (row * 16) + col in
      if i < n then Buffer.add_string buf (Printf.sprintf "%02x " (get_u8 t i))
      else Buffer.add_string buf "   "
    done;
    Buffer.add_char buf ' ';
    for col = 0 to 15 do
      let i = (row * 16) + col in
      if i < n then begin
        let c = get t i in
        Buffer.add_char buf (if c >= ' ' && c <= '~' then c else '.')
      end
    done;
    Buffer.add_char buf '\n'
  done;
  if t.len > max_bytes then
    Buffer.add_string buf (Printf.sprintf "... (%d more bytes)\n" (t.len - max_bytes));
  Buffer.contents buf

let same_memory a b = a.base == b.base && a.off = b.off && a.len = b.len

let overlaps a b =
  a.base == b.base && a.len > 0 && b.len > 0
  && a.off < b.off + b.len
  && b.off < a.off + a.len
