(* Reference pickle writer: the growable-[Buffer] version that emits
   one byte at a time and copies each in-band payload through a string.
   The production writer sizes the stream first and writes it once;
   test_pickle.ml checks that both produce the same bytes. *)

module P = Mpicd_pickle.Pickle

type w = { buf : Buffer.t; mutable oob : P.Buf.t list; oob_threshold : int option }

let u8 w v = Buffer.add_char w.buf (Char.chr (v land 0xff))

let i32 w v =
  u8 w v;
  u8 w (v lsr 8);
  u8 w (v lsr 16);
  u8 w (v lsr 24)

let i64 w v =
  for k = 0 to 7 do
    u8 w (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xff)
  done

let dtype_code = function P.F64 -> 0 | F32 -> 1 | I64 -> 2 | I32 -> 3 | U8 -> 4

let payload w b ~force_oob =
  let oob =
    match w.oob_threshold with
    | None -> false
    | Some thr -> force_oob || P.Buf.length b >= thr
  in
  if oob then begin
    u8 w 0x4F;
    i32 w (List.length w.oob);
    i32 w (P.Buf.length b);
    w.oob <- b :: w.oob
  end
  else begin
    u8 w 0x42;
    i32 w (P.Buf.length b);
    Buffer.add_string w.buf (Buf_ref.to_string b)
  end

let rec value w = function
  | P.None_ -> u8 w 0x4E
  | Bool true -> u8 w 0x54
  | Bool false -> u8 w 0x46
  | Int v ->
      u8 w 0x49;
      i64 w v
  | Float f ->
      u8 w 0x47;
      i64 w (Int64.bits_of_float f)
  | Str s ->
      u8 w 0x55;
      i32 w (String.length s);
      Buffer.add_string w.buf s
  | Bytes b -> payload w b ~force_oob:false
  | List items ->
      u8 w 0x6C;
      i32 w (List.length items);
      List.iter (value w) items
  | Tuple items ->
      u8 w 0x74;
      i32 w (List.length items);
      List.iter (value w) items
  | Dict pairs ->
      u8 w 0x64;
      i32 w (List.length pairs);
      List.iter
        (fun (k, v) ->
          value w k;
          value w v)
        pairs
  | Ndarray a ->
      u8 w 0x41;
      u8 w (dtype_code a.dtype);
      u8 w (Array.length a.shape);
      Array.iter (fun d -> i32 w d) a.shape;
      payload w a.data ~force_oob:true

let write oob_threshold v =
  let w = { buf = Buffer.create 256; oob = []; oob_threshold } in
  value w v;
  u8 w 0x2E;
  (Buf_ref.of_string (Buffer.contents w.buf), List.rev w.oob)

let dumps v = fst (write None v)
let dumps_oob ?(oob_threshold = 1024) v = write (Some oob_threshold) v
