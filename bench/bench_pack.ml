(* Wall-clock packing benchmark: interpreter engine vs compiled plans.

   Unlike the simulator's virtual-time figures (which are bit-identical
   by construction between the two engines), this measures the real
   host-CPU cost of the serialization work itself, the quantity the
   plan compilation is meant to reduce.

   Each shape is measured two ways:
   - whole:  one pack of the full stream (steady-state send of a large
     message with a pre-registered datatype);
   - frag:   the stream produced fragment by fragment through
     [pack_range], the shape of every bounded-MTU transport.  The
     interpreter re-derives its position in the type tree for every
     fragment; the plan resumes a cursor in O(1).

   Usage:
     bench_pack.exe [--smoke] [--out FILE]

   It also counts the words that one [Plan.pack], [Plan.unpack] and
   whole-stream [Plan.pack_range] allocate on every paper kernel.

   Writes a JSON report (default BENCH_PACK.json) and exits nonzero if
   the plan is meaningfully slower than the interpreter on the
   contiguous shape, where compilation can win nothing and must at
   least not regress, or if any of those calls allocates more than
   [max_call_words] words: the copy under each block must allocate
   nothing, so the count may not grow with the kernel's block count.
   Word counts do not depend on host speed, so that guard cannot
   flake. *)

module Buf = Mpicd_buf.Buf
module Dt = Mpicd_datatype.Datatype
module Plan = Mpicd_datatype.Plan

let now = Monotonic_clock.now

(* Median-of-reps wall time per call, in nanoseconds. *)
let time_ns ~reps ~iters f =
  f ();
  f ();
  let samples =
    Array.init reps (fun _ ->
        let t0 = now () in
        for _ = 1 to iters do
          f ()
        done;
        Int64.to_float (Int64.sub (now ()) t0) /. float_of_int iters)
  in
  Array.sort compare samples;
  samples.(reps / 2)

type shape = {
  name : string;
  dt : Dt.t;
  count : int;
  src : Buf.t;
}

let shape name dt ~count =
  let n = max 1 (Dt.ub dt + ((count - 1) * Dt.extent dt)) in
  let src = Buf.create n in
  Mpicd_ddtbench.Kernel.fill src;
  { name; dt; count; src }

(* Sizes are bounded by the slowest cell of the matrix: the
   interpreter's fragmented pack re-walks the typemap per fragment,
   i.e. O(fragments x leaves) — quadratic in stream size — so "full"
   only doubles the smoke shapes. *)
let shapes ~smoke =
  let s = if smoke then 1 else 2 in
  let wrf =
    let module W =
      (val Option.get (Mpicd_ddtbench.Registry.find "WRF_x_vec"))
    in
    { name = "WRF_x_vec"; dt = W.derived; count = 1; src = W.create () }
  in
  [
    shape "contig" (Dt.contiguous (4096 * s) Dt.byte) ~count:(16 * s);
    shape "hvector"
      (Dt.hvector ~count:(64 * s) ~blocklength:8 ~stride_bytes:32 Dt.byte)
      ~count:(8 * s);
    shape "hindexed"
      (Dt.hindexed
         ~blocklengths:(Array.make (32 * s) 16)
         ~displacements_bytes:(Array.init (32 * s) (fun i -> i * 48))
         Dt.byte)
      ~count:(8 * s);
    shape "struct"
      (Dt.resized ~lb:0 ~extent:64
         (Dt.struct_ ~blocklengths:[| 3; 2; 1 |]
            ~displacements_bytes:[| 0; 16; 40 |]
            ~types:[| Dt.int32; Dt.float64; Dt.int64 |]))
      ~count:(64 * s);
    wrf;
  ]

type row = {
  r_name : string;
  bytes : int;
  blocks : int;
  whole_interp_ns : float;
  whole_plan_ns : float;
  frag_size : int;
  frag_interp_ns : float;
  frag_plan_ns : float;
}

let bench ~reps ~iters ~frag_size { name; dt; count; src } =
  let plan = Plan.get dt in
  let psize = Dt.packed_size dt ~count in
  let dst = Buf.create psize in
  let whole_interp_ns =
    time_ns ~reps ~iters (fun () -> ignore (Dt.pack dt ~count ~src ~dst))
  in
  let whole_plan_ns =
    time_ns ~reps ~iters (fun () -> ignore (Plan.pack plan ~count ~src ~dst))
  in
  (* Fragmented stream: same frag_size for both engines; the plan side
     threads a cursor exactly like the transport descriptors do. *)
  let frag_interp_ns =
    time_ns ~reps ~iters (fun () ->
        let off = ref 0 in
        while !off < psize do
          let len = min frag_size (psize - !off) in
          ignore
            (Dt.pack_range dt ~count ~src ~packed_off:!off
               ~dst:(Buf.sub dst ~pos:!off ~len));
          off := !off + len
        done)
  in
  let frag_plan_ns =
    time_ns ~reps ~iters (fun () ->
        let cur = Plan.cursor plan in
        let off = ref 0 in
        while !off < psize do
          let len = min frag_size (psize - !off) in
          ignore
            (Plan.pack_range ~cursor:cur plan ~count ~src ~packed_off:!off
               ~dst:(Buf.sub dst ~pos:!off ~len));
          off := !off + len
        done)
  in
  {
    r_name = name;
    bytes = psize;
    blocks = Plan.block_count plan * count;
    whole_interp_ns;
    whole_plan_ns;
    frag_size;
    frag_interp_ns;
    frag_plan_ns;
  }

(* Words allocated by one call of [f], after a warm-up call. *)
let words_of f =
  f ();
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

type alloc_row = {
  a_name : string;
  a_blocks : int;
  pack_words : float;
  unpack_words : float;
  range_words : float;
}

let max_call_words = 32.

let alloc_row (module K : Mpicd_ddtbench.Kernel.KERNEL) =
  let slab = K.create () and packed = Buf.create K.wire_bytes in
  let sink = K.create_sink () in
  {
    a_name = K.name;
    a_blocks = Plan.block_count K.plan;
    pack_words =
      words_of (fun () -> ignore (Plan.pack K.plan ~count:1 ~src:slab ~dst:packed));
    unpack_words =
      words_of (fun () -> Plan.unpack K.plan ~count:1 ~src:packed ~dst:sink);
    range_words =
      words_of (fun () ->
          ignore
            (Plan.pack_range ~cursor:(Plan.cursor K.plan) K.plan ~count:1
               ~src:slab ~packed_off:0 ~dst:packed));
  }

let alloc_ok r =
  r.pack_words <= max_call_words
  && r.unpack_words <= max_call_words
  && r.range_words <= max_call_words

let json_of_alloc_row r =
  Printf.sprintf
    {|    { "kernel": %S, "blocks": %d, "pack_words": %.0f, "unpack_words": %.0f,
      "pack_range_words": %.0f }|}
    r.a_name r.a_blocks r.pack_words r.unpack_words r.range_words

let speedup interp plan = if plan > 0. then interp /. plan else 0.

let json_of_row r =
  Printf.sprintf
    {|    { "name": %S, "bytes": %d, "blocks": %d,
      "whole": { "interp_ns": %.1f, "plan_ns": %.1f, "speedup": %.3f },
      "frag": { "size": %d, "interp_ns": %.1f, "plan_ns": %.1f, "speedup": %.3f } }|}
    r.r_name r.bytes r.blocks r.whole_interp_ns r.whole_plan_ns
    (speedup r.whole_interp_ns r.whole_plan_ns)
    r.frag_size r.frag_interp_ns r.frag_plan_ns
    (speedup r.frag_interp_ns r.frag_plan_ns)

let () =
  let smoke = ref false and out = ref "BENCH_PACK.json" in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--out" :: file :: rest ->
        out := file;
        parse rest
    | arg :: _ ->
        Printf.eprintf "bench_pack: unknown argument %S\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let reps = if !smoke then 5 else 11 in
  let iters = if !smoke then 5 else 10 in
  let frag_size = if !smoke then 512 else 1024 in
  let rows = List.map (bench ~reps ~iters ~frag_size) (shapes ~smoke:!smoke) in
  let find n = List.find (fun r -> r.r_name = n) rows in
  let contig = find "contig" and hvec = find "hvector" in
  (* Contiguous packing is a single memcpy under both engines: the plan
     may win nothing there, but it must not lose.  1.5x of tolerance
     absorbs timer noise at smoke sizes. *)
  let contig_ok =
    contig.whole_plan_ns <= contig.whole_interp_ns *. 1.5
    && contig.frag_plan_ns <= contig.frag_interp_ns *. 1.5
  in
  let hvec_frag_speedup = speedup hvec.frag_interp_ns hvec.frag_plan_ns in
  let alloc_rows = List.map alloc_row Mpicd_ddtbench.Registry.paper_kernels in
  let allocs_ok = List.for_all alloc_ok alloc_rows in
  let oc = open_out !out in
  Printf.fprintf oc
    {|{
  "smoke": %b,
  "reps": %d,
  "iters": %d,
  "shapes": [
%s
  ],
  "allocation": [
%s
  ],
  "guard": {
    "contig_never_slower": %b,
    "hvector_frag_speedup": %.3f,
    "max_call_words": %.0f,
    "allocation_constant": %b
  }
}
|}
    !smoke reps iters
    (String.concat ",\n" (List.map json_of_row rows))
    (String.concat ",\n" (List.map json_of_alloc_row alloc_rows))
    contig_ok hvec_frag_speedup max_call_words allocs_ok;
  close_out oc;
  List.iter
    (fun r ->
      Printf.printf "%-12s %8dB  whole %8.0f -> %8.0f ns (%5.2fx)   frag(%d) %8.0f -> %8.0f ns (%5.2fx)\n"
        r.r_name r.bytes r.whole_interp_ns r.whole_plan_ns
        (speedup r.whole_interp_ns r.whole_plan_ns)
        r.frag_size r.frag_interp_ns r.frag_plan_ns
        (speedup r.frag_interp_ns r.frag_plan_ns))
    rows;
  List.iter
    (fun r ->
      Printf.printf "%-12s %6d blocks  words: pack %4.0f  unpack %4.0f  pack_range %4.0f\n"
        r.a_name r.a_blocks r.pack_words r.unpack_words r.range_words)
    alloc_rows;
  Printf.printf
    "hvector fragmented speedup: %.2fx; contig guard: %s; allocation guard (<= %.0f words/call): %s\n"
    hvec_frag_speedup
    (if contig_ok then "ok" else "FAILED")
    max_call_words
    (if allocs_ok then "ok" else "FAILED");
  if not contig_ok then
    prerr_endline
      "bench_pack: compiled plan slower than interpreter on contiguous shape";
  if not allocs_ok then
    prerr_endline
      "bench_pack: a plan pack/unpack/pack_range call allocates per block";
  if not (contig_ok && allocs_ok) then exit 1
