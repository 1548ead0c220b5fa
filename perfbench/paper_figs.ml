(* paper-figs: the figure points behind results/fig2, fig5, fig7, fig8
   and fig10, one figure per data path of the paper's §V.  The pass
   drives every point through the same public method builders and
   [Harness.pingpong] calls as the figure generators, so each point can
   be timed and its simulator counters read; the CSVs it writes must
   match results/<key>.csv byte for byte, which proves the pass
   reproduces the generators.  2 ranks, no faults, no Obs sink; inputs
   are deterministic and the seed is not used. *)

module H = Mpicd_harness.Harness
module HReport = Mpicd_harness.Report
module M = Mpicd_figures.Methods
module Fig_ddtbench = Mpicd_figures.Fig_ddtbench
module B = Mpicd_bench_types.Bench_types
module Objmsg = Mpicd_objmsg.Objmsg
module P = Mpicd_pickle.Pickle
module Kernel = Mpicd_ddtbench.Kernel
module Registry = Mpicd_ddtbench.Registry
module Plan = Mpicd_datatype.Plan
module Config = Mpicd_simnet.Config

let name = "paper-figs"
let keys = [ "fig2"; "fig5"; "fig7"; "fig8"; "fig10" ]
let reps = 4
let pow2 lo hi = List.init (hi - lo + 1) (fun i -> 1 lsl (lo + i))

type state = { golden : (string * string) list }

let read_file path = In_channel.with_open_bin path In_channel.input_all

let setup_reps = 15

let setup ~seed:_ =
  Plan.clear_cache ();
  List.iter
    (fun (module K : Kernel.KERNEL) -> ignore (Plan.get K.derived))
    Registry.paper_kernels;
  ignore (Plan.get B.Struct_simple.derived);
  { golden = List.map (fun k -> (k, read_file (Filename.concat "results" (k ^ ".csv")))) keys }

let max_group = "ranks2"
let min_group = "ranks2"

(* One figure point: a traced, tallied [Harness.pingpong]. *)
let point tally ~fig ?(warmup = 2) ~bytes make =
  Report.attempt ();
  let r =
    Trace.with_ ("harness.pingpong:" ^ fig) (fun () ->
        Tally.section tally "ranks2" (fun () ->
            let r = H.pingpong ~warmup ~reps ~bytes make in
            (r.H.stats.Mpicd_simnet.Stats.events_scheduled_total, r)))
  in
  Tally.add_stats tally r.H.stats;
  tally.Tally.payload <- tally.Tally.payload +. float_of_int (2 * reps * bytes);
  tally.Tally.execs <- tally.Tally.execs + 1;
  Tally.bump tally ("rounds:" ^ fig) (warmup + reps);
  r

(* Fig. 2: double-vec bandwidth, subvector 1 KiB (custom iov regions). *)
let fig2 tally =
  let sizes = pow2 10 22 in
  let series label make =
    {
      HReport.label;
      points =
        List.map
          (fun n -> (n, (point tally ~fig:"fig2" ~warmup:1 ~bytes:n (make n)).H.bandwidth_mib_s))
          sizes;
    }
  in
  [
    series "custom" (fun n -> M.dv_custom ~subvec:1024 ~total:n);
    series "manual-pack" (fun n -> M.dv_manual ~subvec:1024 ~total:n);
    series "rsmpi-bytes-baseline" (fun n -> M.bytes_baseline ~total:n);
  ]

(* Figs. 5 and 7: the gapped struct (classic derived datatypes), and
   its bandwidth across the eager->rendezvous switch. *)
let struct_simple tally ~fig which ~sizes =
  let module S = B.Struct_simple in
  let series label m =
    {
      HReport.label;
      points =
        List.map
          (fun n ->
            let count = S.count_for_packed_bytes n in
            let bytes = count * S.packed_elem_size in
            let r = point tally ~fig ~warmup:1 ~bytes (m (module S : B.STRUCT) ~count) in
            (bytes, match which with `Latency -> r.H.latency_us | `Bandwidth -> r.H.bandwidth_mib_s))
          sizes;
    }
  in
  [
    series "custom" M.st_custom;
    series "manual-pack" M.st_manual;
    series "rsmpi-derived-datatype" M.st_rsmpi;
  ]

let fig5 tally = struct_simple tally ~fig:"fig5" `Latency ~sizes:(pow2 6 19)
let fig7 tally = struct_simple tally ~fig:"fig7" `Bandwidth ~sizes:(pow2 10 22)

(* Fig. 8: pickle in-band vs out-of-band, single NumPy arrays. *)
let fig8_object n = P.Ndarray (P.ndarray ~dtype:P.U8 [| n |])
let fig8_sizes = pow2 10 24

let fig8 tally =
  let obj_impl strategy n () =
    let obj = fig8_object n in
    {
      H.send = (fun comm ~dst ~tag -> Objmsg.send strategy comm ~dst ~tag obj);
      H.recv = (fun comm ~source ~tag -> ignore (Objmsg.recv strategy comm ~source ~tag ()));
    }
  in
  let payload n = P.payload_bytes (fig8_object n) in
  {
    HReport.label = "roofline";
    points =
      List.map
        (fun n ->
          let bytes = payload n in
          (n, (point tally ~fig:"fig8" ~warmup:1 ~bytes (M.bytes_baseline ~total:bytes)).H.bandwidth_mib_s))
        fig8_sizes;
  }
  :: List.map
       (fun strategy ->
         {
           HReport.label = Objmsg.strategy_name strategy;
           points =
             List.map
               (fun n ->
                 (n, (point tally ~fig:"fig8" ~bytes:(payload n) (obj_impl strategy n)).H.bandwidth_mib_s))
               fig8_sizes;
         })
       [ Objmsg.Pickle_basic; Objmsg.Pickle_oob; Objmsg.Pickle_oob_cdt ]

(* Fig. 10: DDTBench, every method including the interpreter-driven
   mpi-pack-ddt and the custom pack callbacks.  Returns the CSV. *)
let fig10 tally =
  let row (module K : Kernel.KERNEL) =
    let k = (module K : Kernel.KERNEL) in
    let bw make = (point tally ~fig:"fig10" ~bytes:K.wire_bytes make).H.bandwidth_mib_s in
    let bws =
      [
        Some (bw (M.k_reference k));
        Some (bw (M.k_manual k));
        Some (bw (M.k_ddt_direct k));
        Some (bw (M.k_ddt_pack k));
        Some (bw (M.k_custom_pack k));
        (match M.k_custom_regions k () with
        | None -> None
        | Some _ -> Some (bw (fun () -> Option.get (M.k_custom_regions k ()))));
      ]
    in
    String.concat ","
      (K.name :: string_of_int K.wire_bytes
      :: List.map (function None -> "" | Some b -> Printf.sprintf "%.1f" b) bws)
  in
  String.concat "\n"
    (String.concat "," ("benchmark" :: "bytes" :: Fig_ddtbench.method_names)
    :: List.map row Registry.paper_kernels)
  ^ "\n"

let csv_of_series key series =
  let path = Report.out_path (name ^ "-" ^ key ^ ".csv") in
  HReport.to_csv ~path ~xlabel:"size" series;
  read_file path

(* Each CSV line that differs from the committed figure counts as one
   failed operation. *)
let check_csv st key actual =
  let expected = List.assoc key st.golden in
  if actual <> expected then begin
    let e = String.split_on_char '\n' expected and a = String.split_on_char '\n' actual in
    let n = max (List.length e) (List.length a) in
    let line l i = Option.value (List.nth_opt l i) ~default:"<missing>" in
    for i = 0 to n - 1 do
      Report.check (line e i = line a i) "%s: line %d is %S, results/%s.csv has %S" key (i + 1)
        (line a i) key (line e i)
    done
  end

let pass st tally =
  List.iter
    (fun key ->
      Trace.with_ ("figures." ^ key) (fun () ->
          let csv =
            match key with
            | "fig2" -> csv_of_series key (fig2 tally)
            | "fig5" -> csv_of_series key (fig5 tally)
            | "fig7" -> csv_of_series key (fig7 tally)
            | "fig8" -> csv_of_series key (fig8 tally)
            | _ -> fig10 tally
          in
          check_csv st key csv))
    keys

(* Retries would mean the fault-free transport misbehaved. *)
let verify _ tally =
  List.iter
    (fun c -> Report.check (Tally.count tally c = 0) "%s is %d on a fault-free workload" c (Tally.count tally c))
    [ "ucx.retransmits"; "ucx.frags_dropped"; "ucx.frags_corrupted"; "ucx.acks"; "ucx.nacks"; "ucx.iov_fallbacks" ]

let layers _ tally ~traced_passes =
  let passes = float_of_int (max 1 traced_passes) in
  List.iter
    (fun key ->
      let _, ns = Trace.total_ns ("figures." ^ key) in
      Report.one (Printf.sprintf "figures.%s.host_s" key) "s" (ns /. passes /. 1e9);
      let _, ns = Trace.total_ns ("harness.pingpong:" ^ key) in
      let rounds = float_of_int (Tally.count tally ("rounds:" ^ key)) *. passes in
      Report.one (Printf.sprintf "core.pingpong.host_us.%s" key) "us" (ns /. 1e3 /. rounds)
        ~note:"host time per round, warm-up rounds included")
    keys;
  let frag = Config.default.Config.link.Config.frag_size in
  let kernels =
    List.map (fun (module K : Kernel.KERNEL) -> (K.derived, 1)) Registry.paper_kernels
  in
  let struct_simple =
    (B.Struct_simple.derived, B.Struct_simple.count_for_packed_bytes (1 lsl 20))
  in
  Layers.datatypes ~frag (struct_simple :: kernels);
  Layers.crc32 ~frag;
  Layers.blit ~bytes:(1 lsl 20);
  Layers.evq ~live:(Tally.count tally "simnet.max_live_events");
  Layers.fiber_switch [ 2 ];
  Layers.world_us_per_rank [ 2 ];
  let objs = List.map fig8_object [ 1 lsl 10; 1 lsl 16; 1 lsl 22 ] in
  let rows f = List.map (fun o -> (P.payload_bytes o, f o)) objs in
  Layers.gb_row_over "pickle.dumps.gb_per_s" (rows (fun o () -> ignore (P.dumps o)));
  Layers.gb_row_over "pickle.loads.gb_per_s"
    (rows (fun o ->
         let b = P.dumps o in
         fun () -> ignore (P.loads b)));
  Layers.gb_row_over "pickle.dumps_oob.gb_per_s" (rows (fun o () -> ignore (P.dumps_oob o)))
