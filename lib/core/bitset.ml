(* 63 bits per limb (the native int width on 64-bit OCaml); rank [i]
   lives at bit [i mod 63] of limb [i / 63]. *)

type t = { bits : int array; n : int }

let limbs n = (n + 62) / 63

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { bits = Array.make (max 1 (limbs n)) 0; n }

let capacity t = t.n

let check t i who =
  if i < 0 || i >= t.n then invalid_arg ("Bitset." ^ who ^ ": out of range")

let mem t i =
  check t i "mem";
  t.bits.(i / 63) land (1 lsl (i mod 63)) <> 0

let add t i =
  check t i "add";
  t.bits.(i / 63) <- t.bits.(i / 63) lor (1 lsl (i mod 63))

(* Whole limbs at once: one store per 63 ranks, not one [add] per rank
   (every member of an N-rank shrink builds one). *)
let full n =
  let t = create n in
  for k = 0 to limbs n - 1 do
    let w = min 63 (n - (63 * k)) in
    t.bits.(k) <- (if w = 63 then -1 else (1 lsl w) - 1)
  done;
  t

let is_empty t = Array.for_all (fun w -> w = 0) t.bits

let check_pair dst src who =
  if dst.n <> src.n then invalid_arg ("Bitset." ^ who ^ ": capacity mismatch")

let union_into dst src =
  check_pair dst src "union_into";
  for k = 0 to Array.length dst.bits - 1 do
    dst.bits.(k) <- dst.bits.(k) lor src.bits.(k)
  done

let inter_into dst src =
  check_pair dst src "inter_into";
  for k = 0 to Array.length dst.bits - 1 do
    dst.bits.(k) <- dst.bits.(k) land src.bits.(k)
  done

let of_list n members =
  let t = create n in
  List.iter (fun i -> add t i) members;
  t
