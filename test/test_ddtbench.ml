(* Tests for the DDTBench kernels: every kernel, every transfer method,
   same bytes. *)

module Buf = Mpicd_buf.Buf
module Dt = Mpicd_datatype.Datatype
module Mpi = Mpicd.Mpi
module Plan = Mpicd_datatype.Plan
module Kernel = Mpicd_ddtbench.Kernel
module Registry = Mpicd_ddtbench.Registry

let check_int = Alcotest.(check int)

(* --- Plan over an out-of-order block list --- *)

(* (slab offset, len) blocks in packed-stream order, deliberately not
   sorted by offset. *)
let sample_plan =
  Plan.build
    (Dt.hindexed ~blocklengths:[| 4; 8; 2; 1 |]
       ~displacements_bytes:[| 10; 20; 3; 40 |] Dt.byte)

let pack_range ~base ~offset ~dst =
  Plan.pack_range sample_plan ~count:1 ~src:base ~packed_off:offset ~dst

let test_blocks_total () =
  check_int "total" 15 (Plan.size sample_plan);
  check_int "count" 4 (Plan.block_count sample_plan)

let test_blocks_pack_matches_manual () =
  let base = Buf.create 64 in
  for i = 0 to 63 do
    Buf.set_u8 base i i
  done;
  let dst = Buf.create 15 in
  ignore (pack_range ~base ~offset:0 ~dst);
  let expect = [ 10; 11; 12; 13; 20; 21; 22; 23; 24; 25; 26; 27; 3; 4; 40 ] in
  List.iteri (fun i v -> check_int "byte" v (Buf.get_u8 dst i)) expect

let test_blocks_fragmented_equals_whole () =
  let base = Buf.create 64 in
  Mpicd_ddtbench.Kernel.fill base;
  let whole = Buf.create 15 in
  ignore (pack_range ~base ~offset:0 ~dst:whole);
  for frag = 1 to 15 do
    let out = Buf.create 15 in
    let off = ref 0 in
    while !off < 15 do
      let len = min frag (15 - !off) in
      let n = pack_range ~base ~offset:!off ~dst:(Buf.sub out ~pos:!off ~len) in
      assert (n = len);
      off := !off + len
    done;
    Alcotest.(check bool)
      (Printf.sprintf "frag=%d" frag)
      true (Buf.equal whole out)
  done

let test_blocks_unpack_roundtrip () =
  let base = Buf.create 64 in
  Mpicd_ddtbench.Kernel.fill base;
  let packed = Buf.create 15 in
  ignore (pack_range ~base ~offset:0 ~dst:packed);
  let sink = Buf.create 64 in
  (* unpack in awkward fragments *)
  let off = ref 0 in
  while !off < 15 do
    let len = min 4 (15 - !off) in
    ignore
      (Plan.unpack_range sample_plan ~count:1
         ~src:(Buf.sub packed ~pos:!off ~len)
         ~packed_off:!off ~dst:sink);
    off := !off + len
  done;
  Alcotest.(check bool) "typed equal" true
    (List.for_all2 Buf.equal
       (Plan.iovec sample_plan ~count:1 ~base)
       (Plan.iovec sample_plan ~count:1 ~base:sink))

let test_blocks_past_end () =
  let base = Buf.create 64 in
  check_int "zero past end" 0 (pack_range ~base ~offset:15 ~dst:(Buf.create 8))

let test_blocks_regions_alias () =
  let base = Buf.create 64 in
  let regs = Plan.iovec sample_plan ~count:1 ~base in
  check_int "count" 4 (List.length regs);
  List.iter
    (fun r -> Alcotest.(check bool) "aliases slab" true (Buf.overlaps r base))
    regs

(* --- kernels: exhaustive per-kernel method agreement --- *)

let for_each_kernel f =
  List.iter (fun (module K : Kernel.KERNEL) -> f (module K : Kernel.KERNEL)) Registry.all

let test_manual_roundtrip () =
  for_each_kernel (fun (module K) ->
      let src = K.create () in
      let packed = Buf.create K.wire_bytes in
      K.manual_pack src ~dst:packed;
      let sink = K.create_sink () in
      K.manual_unpack ~src:packed sink;
      Alcotest.(check bool) (K.name ^ " manual roundtrip") true (K.equal src sink))

let test_derived_matches_manual () =
  (* The derived datatype's pack must match the manual pack stream. *)
  for_each_kernel (fun (module K) ->
      let src = K.create () in
      let manual = Buf.create K.wire_bytes in
      K.manual_pack src ~dst:manual;
      let viaddt = Buf.create K.wire_bytes in
      ignore (Dt.pack K.derived ~count:1 ~src ~dst:viaddt);
      Alcotest.(check bool) (K.name ^ " ddt = manual") true
        (Buf.equal manual viaddt))

let test_derived_over_mpi () =
  for_each_kernel (fun (module K) ->
      let w = Mpi.create_world ~size:2 () in
      let src = K.create () and sink = K.create_sink () in
      Mpi.run w (fun comm ->
          if Mpi.rank comm = 0 then
            Mpi.send comm ~dst:1 ~tag:0
              (Mpi.Typed { dt = K.derived; count = 1; base = src })
          else
            ignore
              (Mpi.recv comm (Mpi.Typed { dt = K.derived; count = 1; base = sink })));
      Alcotest.(check bool) (K.name ^ " derived over MPI") true (K.equal src sink))

let test_custom_pack_over_mpi () =
  for_each_kernel (fun (module K) ->
      let w = Mpi.create_world ~size:2 () in
      let src = K.create () and sink = K.create_sink () in
      Mpi.run w (fun comm ->
          if Mpi.rank comm = 0 then
            Mpi.send comm ~dst:1 ~tag:0
              (Mpi.Custom { dt = K.custom_pack; obj = src; count = 1 })
          else
            ignore
              (Mpi.recv comm
                 (Mpi.Custom { dt = K.custom_pack; obj = sink; count = 1 })));
      Alcotest.(check bool) (K.name ^ " custom-pack over MPI") true
        (K.equal src sink))

let test_custom_regions_over_mpi () =
  for_each_kernel (fun (module K) ->
      match K.custom_regions with
      | None ->
          Alcotest.(check bool)
            (K.name ^ " regions not sensible")
            false K.regions_sensible
      | Some dt ->
          let w = Mpi.create_world ~size:2 () in
          let src = K.create () and sink = K.create_sink () in
          Mpi.run w (fun comm ->
              if Mpi.rank comm = 0 then
                Mpi.send comm ~dst:1 ~tag:0 (Mpi.Custom { dt; obj = src; count = 1 })
              else
                ignore (Mpi.recv comm (Mpi.Custom { dt; obj = sink; count = 1 })));
          Alcotest.(check bool) (K.name ^ " custom-regions over MPI") true
            (K.equal src sink);
          (* regions must be zero-copy *)
          let stats = Mpi.world_stats w in
          Alcotest.(check bool) (K.name ^ " zero copies") true
            (stats.bytes_copied < K.wire_bytes / 10))

let test_wire_sizes_sane () =
  for_each_kernel (fun (module K) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s wire (%d) fits slab (%d)" K.name K.wire_bytes
           K.slab_bytes)
        true
        (K.wire_bytes > 0 && K.wire_bytes <= K.slab_bytes);
      check_int (K.name ^ " derived size") K.wire_bytes (Dt.size K.derived))

(* Block count and wire bytes of every registry kernel.  The block count
   is the piece count every virtual-time cost charges per message, so
   these pin the figures' inputs, including the extra kernels that no
   committed CSV covers. *)
let expected_granularity =
  [
    ("LAMMPS_full", 24576, 278528);
    ("LAMMPS_atomic", 16384, 147456);
    ("MILC_su3_zdown", 256, 294912);
    ("MILC_su3_xdown", 4096, 294912);
    ("NAS_LU_x", 1, 40960);
    ("NAS_LU_y", 1024, 40960);
    ("NAS_MG_x", 16384, 131072);
    ("NAS_MG_y", 128, 131072);
    ("NAS_MG_z", 1, 131072);
    ("WRF_x_vec", 8192, 131072);
    ("WRF_y_vec", 128, 131072);
    ("WRF_x_sa", 8192, 131072);
    ("WRF_y_sa", 128, 131072);
    ("FFT2", 256, 65536);
    ("SPECFEM3D_oc", 16384, 65536);
    ("SPECFEM3D_mt", 8192, 98304);
  ]

let test_expected_block_granularity () =
  check_int "every kernel pinned" (List.length Registry.all)
    (List.length expected_granularity);
  List.iter
    (fun (name, blocks, wire) ->
      match Registry.find name with
      | Some (module K) ->
          check_int (name ^ " blocks") blocks (Plan.block_count K.plan);
          check_int (name ^ " wire bytes") wire K.wire_bytes
      | None -> Alcotest.failf "kernel %s missing" name)
    expected_granularity;
  (* The properties the paper's Fig. 10 analysis relies on. *)
  let count name =
    match Registry.find name with
    | Some (module K) -> Plan.block_count K.plan
    | None -> Alcotest.failf "kernel %s missing" name
  in
  (* contiguous exchanges: a single region *)
  check_int "NAS_LU_x one region" 1 (count "NAS_LU_x");
  (* NAS_LU_y: many small regions *)
  Alcotest.(check bool) "NAS_LU_y many regions" true (count "NAS_LU_y" >= 1024);
  (* MG_x tiny blocks vastly outnumber MG_y's row blocks *)
  Alcotest.(check bool) "MG_x >> MG_y" true
    (count "NAS_MG_x" > 100 * count "NAS_MG_y");
  (* MILC: a small number of fairly large regions *)
  Alcotest.(check bool) "MILC few regions" true (count "MILC_su3_zdown" <= 512)

let test_registry () =
  check_int "paper kernels" 8 (List.length Registry.paper_kernels);
  Alcotest.(check bool) "extras present" true
    (List.length Registry.extra_kernels >= 4);
  Alcotest.(check bool) "find works" true
    (Option.is_some (Registry.find "LAMMPS_full"));
  Alcotest.(check bool) "find missing" true (Registry.find "nope" = None)

let test_table1_contents () =
  let rows = Registry.table1 Registry.paper_kernels in
  check_int "eight rows" 8 (List.length rows);
  let name, dts, loops, regions = List.hd rows in
  Alcotest.(check string) "first is LAMMPS" "LAMMPS_full" name;
  Alcotest.(check string) "datatypes" "indexed, struct" dts;
  Alcotest.(check bool) "loop structure mentions arrays" true
    (String.length loops > 0);
  Alcotest.(check string) "lammps: no regions" "" regions;
  let checkmarks =
    List.filter (fun (_, _, _, r) -> r = "yes") rows |> List.length
  in
  (* MILC, NAS_LU_x, NAS_LU_y, NAS_MG_x, NAS_MG_y carry the checkmark *)
  check_int "five region rows" 5 checkmarks

let prop_blocks_random_fragmentation =
  QCheck.Test.make ~name:"ddtbench: random kernel x fragment size packs equal"
    ~count:60
    QCheck.(pair (int_range 0 (List.length Registry.all - 1)) (int_range 1 65536))
    (fun (ki, frag) ->
      let (module K : Kernel.KERNEL) = List.nth Registry.all ki in
      let src = K.create () in
      let whole = Buf.create K.wire_bytes in
      ignore (Plan.pack_range K.plan ~count:1 ~src ~packed_off:0 ~dst:whole);
      let out = Buf.create K.wire_bytes in
      let off = ref 0 in
      while !off < K.wire_bytes do
        let len = min frag (K.wire_bytes - !off) in
        ignore
          (Plan.pack_range K.plan ~count:1 ~src ~packed_off:!off
             ~dst:(Buf.sub out ~pos:!off ~len));
        off := !off + len
      done;
      Buf.equal whole out)

(* [fill] copies its first 256 bytes forward; every byte must still be
   the formula's, also at lengths that are not a multiple of 256. *)
let test_fill_formula () =
  List.iter
    (fun n ->
      let b = Buf.create n in
      Kernel.fill b;
      for i = 0 to n - 1 do
        if Buf.get_u8 b i <> (i * 131 + 17) land 0xff then
          Alcotest.failf "fill: length %d, byte %d" n i
      done)
    [ 0; 1; 255; 256; 257; 511; 1000; 65_537; 300_001 ]

let suite =
  let tc = Alcotest.test_case in
  ( "ddtbench",
    [
      tc "blocks total/count" `Quick test_blocks_total;
      tc "blocks pack order" `Quick test_blocks_pack_matches_manual;
      tc "blocks fragmented = whole" `Quick test_blocks_fragmented_equals_whole;
      tc "blocks unpack roundtrip" `Quick test_blocks_unpack_roundtrip;
      tc "blocks past end" `Quick test_blocks_past_end;
      tc "blocks regions alias slab" `Quick test_blocks_regions_alias;
      tc "all kernels: manual roundtrip" `Quick test_manual_roundtrip;
      tc "all kernels: derived = manual stream" `Quick test_derived_matches_manual;
      tc "all kernels: derived over MPI" `Slow test_derived_over_mpi;
      tc "all kernels: custom-pack over MPI" `Slow test_custom_pack_over_mpi;
      tc "all kernels: custom-regions over MPI" `Slow test_custom_regions_over_mpi;
      tc "all kernels: wire sizes sane" `Quick test_wire_sizes_sane;
      tc "block granularity matches paper analysis" `Quick
        test_expected_block_granularity;
      tc "registry" `Quick test_registry;
      tc "Table I contents" `Quick test_table1_contents;
      QCheck_alcotest.to_alcotest prop_blocks_random_fragmentation;
      tc "fill = formula" `Quick test_fill_formula;
    ] )
