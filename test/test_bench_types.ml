(* Tests for the paper's §V-A benchmark types. *)

module Buf = Mpicd_buf.Buf
module Dt = Mpicd_datatype.Datatype
module Mpi = Mpicd.Mpi
module B = Mpicd_bench_types.Bench_types

let check_int = Alcotest.(check int)

(* --- double-vec --- *)

let test_dv_generate_shapes () =
  let t = B.Double_vec.generate ~subvec_bytes:1024 ~total_bytes:4096 in
  check_int "four subvectors" 4 (Array.length t);
  check_int "total" 4096 (B.Double_vec.total_bytes t);
  (* message smaller than subvector: single subvector of message size *)
  let small = B.Double_vec.generate ~subvec_bytes:1024 ~total_bytes:256 in
  check_int "one subvector" 1 (Array.length small);
  check_int "of message size" 256 (Buf.length small.(0))

let test_dv_manual_roundtrip () =
  let t = B.Double_vec.generate ~subvec_bytes:100 ~total_bytes:700 in
  let packed = Buf.create (B.Double_vec.manual_pack_size t) in
  B.Double_vec.manual_pack t ~dst:packed;
  let sink = B.Double_vec.make_sink ~subvec_bytes:100 ~total_bytes:700 in
  B.Double_vec.manual_unpack ~src:packed sink;
  Alcotest.(check bool) "equal" true (B.Double_vec.equal t sink)

let test_dv_manual_shape_mismatch () =
  let t = B.Double_vec.generate ~subvec_bytes:100 ~total_bytes:300 in
  let packed = Buf.create (B.Double_vec.manual_pack_size t) in
  B.Double_vec.manual_pack t ~dst:packed;
  let wrong = B.Double_vec.make_sink ~subvec_bytes:100 ~total_bytes:200 in
  match B.Double_vec.manual_unpack ~src:packed wrong with
  | () -> Alcotest.fail "expected mismatch"
  | exception Invalid_argument _ -> ()

let test_dv_custom_over_mpi () =
  let w = Mpi.create_world ~size:2 () in
  let src = B.Double_vec.generate ~subvec_bytes:512 ~total_bytes:8192 in
  let sink = B.Double_vec.make_sink ~subvec_bytes:512 ~total_bytes:8192 in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        Mpi.send comm ~dst:1 ~tag:0
          (Mpi.Custom { dt = B.Double_vec.custom_dt; obj = src; count = 1 })
      else begin
        let st =
          Mpi.recv comm
            (Mpi.Custom { dt = B.Double_vec.custom_dt; obj = sink; count = 1 })
        in
        (* 16 subvectors: 64B header + 8192B regions *)
        check_int "wire bytes" (64 + 8192) st.len
      end);
  Alcotest.(check bool) "delivered" true (B.Double_vec.equal src sink)

let test_dv_custom_zero_copy () =
  let w = Mpi.create_world ~size:2 () in
  let stats = Mpi.world_stats w in
  let total = 1 lsl 20 in
  let src = B.Double_vec.generate ~subvec_bytes:4096 ~total_bytes:total in
  let sink = B.Double_vec.make_sink ~subvec_bytes:4096 ~total_bytes:total in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        Mpi.send comm ~dst:1 ~tag:0
          (Mpi.Custom { dt = B.Double_vec.custom_dt; obj = src; count = 1 })
      else
        ignore
          (Mpi.recv comm
             (Mpi.Custom { dt = B.Double_vec.custom_dt; obj = sink; count = 1 })));
  Alcotest.(check bool) "payload not CPU-copied" true
    (stats.bytes_copied < total / 100)

(* --- struct types (generic checks over the three modules) --- *)

let struct_cases : (string * (module B.STRUCT)) list =
  [
    ("struct-vec", (module B.Struct_vec));
    ("struct-simple", (module B.Struct_simple));
    ("struct-simple-no-gap", (module B.Struct_simple_no_gap));
  ]

let test_struct_sizes () =
  check_int "struct-vec sizeof" 8216 B.Struct_vec.sizeof;
  check_int "struct-vec packed" 8212 B.Struct_vec.packed_elem_size;
  check_int "struct-simple sizeof" 24 B.Struct_simple.sizeof;
  check_int "struct-simple packed" 20 B.Struct_simple.packed_elem_size;
  check_int "no-gap sizeof" 16 B.Struct_simple_no_gap.sizeof;
  check_int "no-gap packed" 16 B.Struct_simple_no_gap.packed_elem_size

let test_struct_manual_roundtrip () =
  List.iter
    (fun (name, (module S : B.STRUCT)) ->
      let count = 5 in
      let src = S.generate ~count in
      let packed = Buf.create (count * S.packed_elem_size) in
      S.manual_pack src ~count ~dst:packed;
      let sink = S.make_sink ~count in
      S.manual_unpack ~src:packed sink ~count;
      Alcotest.(check bool) (name ^ " manual roundtrip") true
        (S.equal_elems src sink ~count))
    struct_cases

let test_struct_custom_over_mpi () =
  List.iter
    (fun (name, (module S : B.STRUCT)) ->
      let count = 3 in
      let w = Mpi.create_world ~size:2 () in
      let src = S.generate ~count in
      let sink = S.make_sink ~count in
      Mpi.run w (fun comm ->
          if Mpi.rank comm = 0 then
            Mpi.send comm ~dst:1 ~tag:0
              (Mpi.Custom { dt = S.custom_dt; obj = src; count })
          else
            ignore
              (Mpi.recv comm (Mpi.Custom { dt = S.custom_dt; obj = sink; count })));
      Alcotest.(check bool) (name ^ " custom roundtrip") true
        (S.equal_elems src sink ~count))
    struct_cases

let test_struct_derived_over_mpi () =
  List.iter
    (fun (name, (module S : B.STRUCT)) ->
      let count = 4 in
      let w = Mpi.create_world ~size:2 () in
      let src = S.generate ~count in
      let sink = S.make_sink ~count in
      Mpi.run w (fun comm ->
          if Mpi.rank comm = 0 then
            Mpi.send comm ~dst:1 ~tag:0
              (Mpi.Typed { dt = S.derived; count; base = src })
          else
            ignore
              (Mpi.recv comm (Mpi.Typed { dt = S.derived; count; base = sink })));
      Alcotest.(check bool) (name ^ " derived roundtrip") true
        (S.equal_elems src sink ~count))
    struct_cases

let test_methods_agree_on_wire_content () =
  (* custom and manual-pack must deliver the same element bytes *)
  let count = 2 in
  let src = B.Struct_simple.generate ~count in
  let packed = Buf.create (count * B.Struct_simple.packed_elem_size) in
  B.Struct_simple.manual_pack src ~count ~dst:packed;
  let sink1 = B.Struct_simple.make_sink ~count in
  B.Struct_simple.manual_unpack ~src:packed sink1 ~count;
  let w = Mpi.create_world ~size:2 () in
  let sink2 = B.Struct_simple.make_sink ~count in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        Mpi.send comm ~dst:1 ~tag:0
          (Mpi.Custom { dt = B.Struct_simple.custom_dt; obj = src; count })
      else
        ignore
          (Mpi.recv comm
             (Mpi.Custom { dt = B.Struct_simple.custom_dt; obj = sink2; count })));
  Alcotest.(check bool) "agree" true
    (B.Struct_simple.equal_elems sink1 sink2 ~count)

let test_no_gap_custom_needs_no_packing () =
  (* whole-region type: a send must invoke zero pack callbacks *)
  let w = Mpi.create_world ~size:2 () in
  let stats = Mpi.world_stats w in
  let count = 10 in
  let src = B.Struct_simple_no_gap.generate ~count in
  let sink = B.Struct_simple_no_gap.make_sink ~count in
  Mpi.run w (fun comm ->
      if Mpi.rank comm = 0 then
        Mpi.send comm ~dst:1 ~tag:0
          (Mpi.Custom { dt = B.Struct_simple_no_gap.custom_dt; obj = src; count })
      else
        ignore
          (Mpi.recv comm
             (Mpi.Custom
                { dt = B.Struct_simple_no_gap.custom_dt; obj = sink; count })));
  check_int "no pack callbacks" 0 stats.pack_callbacks;
  Alcotest.(check bool) "delivered" true
    (B.Struct_simple_no_gap.equal_elems src sink ~count)

let test_count_for_packed_bytes () =
  check_int "struct-vec at 32K" 3 (B.Struct_vec.count_for_packed_bytes (1 lsl 15));
  check_int "at least 1" 1 (B.Struct_vec.count_for_packed_bytes 10)

(* --- harness --- *)

module H = Mpicd_harness.Harness
module Report = Mpicd_harness.Report

let bytes_impl n () =
  let src = Buf.create n and dst = Buf.create n in
  {
    H.send = (fun comm ~dst:d ~tag -> Mpi.send comm ~dst:d ~tag (Mpi.Bytes src));
    H.recv =
      (fun comm ~source ~tag ->
        ignore (Mpi.recv comm ~source ~tag (Mpi.Bytes dst)));
  }

let test_harness_pingpong () =
  let r = H.pingpong ~bytes:4096 (bytes_impl 4096) in
  Alcotest.(check bool) "latency positive" true (r.latency_us > 0.);
  Alcotest.(check bool) "bandwidth positive" true (r.bandwidth_mib_s > 0.);
  check_int "bytes recorded" 4096 r.bytes

let test_harness_deterministic () =
  let a = H.pingpong ~bytes:1024 (bytes_impl 1024) in
  let b = H.pingpong ~bytes:1024 (bytes_impl 1024) in
  Alcotest.(check (float 0.)) "same latency" a.latency_us b.latency_us

let test_harness_monotone () =
  let small = H.pingpong ~bytes:64 (bytes_impl 64) in
  let big = H.pingpong ~bytes:(1 lsl 20) (bytes_impl (1 lsl 20)) in
  Alcotest.(check bool) "bigger is slower" true
    (big.latency_us > small.latency_us)

let test_report_render () =
  let s1 = { Report.label = "custom"; points = [ (64, 1.5); (128, 2.0) ] } in
  let s2 = { Report.label = "packed"; points = [ (64, 1.7) ] } in
  let out = Report.render ~title:"Fig" ~xlabel:"size" [ s1; s2 ] in
  let contains needle =
    let nl = String.length needle and hl = String.length out in
    let rec go i = i + nl <= hl && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has title" true (contains "=== Fig ===");
  Alcotest.(check bool) "has labels" true (contains "custom" && contains "packed");
  Alcotest.(check bool) "missing point dashed" true (contains "-")

let test_csv_roundtrip () =
  let s1 = { Report.label = "a"; points = [ (64, 1.5); (128, 2.25) ] } in
  let s2 = { Report.label = "b"; points = [ (128, 3.5) ] } in
  let path = Filename.temp_file "mpicd" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Report.to_csv ~path ~xlabel:"size" [ s1; s2 ];
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      match List.rev !lines with
      | [ header; r1; r2 ] ->
          Alcotest.(check string) "header" "size,a,b" header;
          Alcotest.(check bool) "row 64" true
            (String.length r1 > 0 && String.sub r1 0 3 = "64,");
          Alcotest.(check bool) "row 128 has both" true
            (String.split_on_char ',' r2 |> List.length = 3)
      | _ -> Alcotest.fail "expected 3 lines")

let test_human_bytes () =
  Alcotest.(check string) "1K" "1K" (Report.human_bytes 1024);
  Alcotest.(check string) "1M" "1M" (Report.human_bytes (1 lsl 20));
  Alcotest.(check string) "odd" "3000" (Report.human_bytes 3000);
  Alcotest.(check string) "64" "64" (Report.human_bytes 64)

(* [Double_vec.generate] fills subvector [k] with [fill_pattern ~seed:k],
   which copies its first 256 bytes forward; every byte must still be
   the formula's, also at lengths that are not a multiple of 256. *)
let test_fill_pattern_formula () =
  List.iter
    (fun (subvec_bytes, total_bytes) ->
      let dv = B.Double_vec.generate ~subvec_bytes ~total_bytes in
      Array.iteri
        (fun seed b ->
          for i = 0 to Buf.length b - 1 do
            if Buf.get_u8 b i <> (i * 31 + seed + 11) land 0xff then
              Alcotest.failf "fill_pattern: length %d, seed %d, byte %d"
                (Buf.length b) seed i
          done)
        dv)
    [ (1, 3); (255, 255); (256, 1024); (257, 2000); (4099, 5000); (70_001, 70_000) ]

let suite =
  let tc = Alcotest.test_case in
  ( "bench_types",
    [
      tc "double-vec shapes" `Quick test_dv_generate_shapes;
      tc "double-vec manual roundtrip" `Quick test_dv_manual_roundtrip;
      tc "double-vec manual shape mismatch" `Quick test_dv_manual_shape_mismatch;
      tc "double-vec custom over MPI" `Quick test_dv_custom_over_mpi;
      tc "double-vec custom zero copy" `Quick test_dv_custom_zero_copy;
      tc "struct sizes match paper" `Quick test_struct_sizes;
      tc "struct manual roundtrips" `Quick test_struct_manual_roundtrip;
      tc "struct custom over MPI" `Quick test_struct_custom_over_mpi;
      tc "struct derived over MPI" `Quick test_struct_derived_over_mpi;
      tc "methods agree on content" `Quick test_methods_agree_on_wire_content;
      tc "no-gap custom needs no packing" `Quick test_no_gap_custom_needs_no_packing;
      tc "count_for_packed_bytes" `Quick test_count_for_packed_bytes;
      tc "harness pingpong" `Quick test_harness_pingpong;
      tc "harness deterministic" `Quick test_harness_deterministic;
      tc "harness monotone" `Quick test_harness_monotone;
      tc "report render" `Quick test_report_render;
      tc "csv roundtrip" `Quick test_csv_roundtrip;
      tc "human bytes" `Quick test_human_bytes;
      tc "fill_pattern = formula" `Quick test_fill_pattern_formula;
    ] )
