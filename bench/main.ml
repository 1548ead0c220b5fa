(* Benchmark driver: regenerates every table and figure of the paper's
   evaluation (plus the ablations), and optionally runs Bechamel
   micro-benchmarks of the real CPU-side packing work.

   Usage:
     bench/main.exe                 run everything (Table I, Figs 1-10, ablations)
     bench/main.exe fig3 fig10      run selected artifacts
     bench/main.exe micro           run the Bechamel pack/unpack micro-benches
     bench/main.exe --csv DIR ...   also write CSVs into DIR *)

module Report = Mpicd_harness.Report
module Figures = Mpicd_figures.Fig_rust
module Python = Mpicd_figures.Fig_python
module Ddt = Mpicd_figures.Fig_ddtbench
module Ablations = Mpicd_figures.Ablations

let series_figures = Figures.all @ Python.all @ Ablations.all

let run_series ?csv_dir (key, title, ylabel, f) =
  let series = f () in
  Report.print ~ylabel ~title ~xlabel:"size" series;
  match csv_dir with
  | None -> ()
  | Some dir ->
      Report.to_csv ~path:(Filename.concat dir (key ^ ".csv")) ~xlabel:"size"
        series

let run_one ?csv_dir key =
  match key with
  | "table1" -> Ddt.print_table1 ()
  | "fig10" ->
      Ddt.print_fig10 ();
      Option.iter
        (fun dir -> Ddt.fig10_csv ~path:(Filename.concat dir "fig10.csv") ())
        csv_dir
  | "fig10-extras" ->
      Ddt.print_fig10 ~kernels:Mpicd_ddtbench.Registry.extra_kernels ()
  | "ablation-objmsg" -> Ablations.print_objmsg_costs ()
  | "ablation-threads" -> Ablations.print_threading ()
  | "ablation-device" -> Ablations.print_device ()
  | key -> (
      match List.find_opt (fun (k, _, _, _) -> k = key) series_figures with
      | Some fig -> run_series ?csv_dir fig
      | None ->
          Printf.eprintf "unknown benchmark %S\n" key;
          exit 2)

let all_keys =
  [ "table1" ]
  @ List.map (fun (k, _, _, _) -> k) (Figures.all @ Python.all)
  @ [ "fig10"; "fig10-extras" ]
  @ List.map (fun (k, _, _, _) -> k) Ablations.all
  @ [ "ablation-objmsg"; "ablation-threads"; "ablation-device" ]

(* --- Bechamel micro-benchmarks of the real (host CPU) packing work:
   one Test.make per serialization path, run on actual buffers. *)

let micro_tests () =
  let open Bechamel in
  let module B = Mpicd_bench_types.Bench_types in
  let module Buf = Mpicd_buf.Buf in
  let module Dt = Mpicd_datatype.Datatype in
  let module Plan = Mpicd_datatype.Plan in
  let count = 64 in
  let src = B.Struct_simple.generate ~count in
  let packed = Buf.create (count * B.Struct_simple.packed_elem_size) in
  let sv_src = B.Struct_vec.generate ~count:4 in
  let sv_packed = Buf.create (4 * B.Struct_vec.packed_elem_size) in
  let dv = B.Double_vec.generate ~subvec_bytes:1024 ~total_bytes:(64 * 1024) in
  let dv_packed = Buf.create (B.Double_vec.manual_pack_size dv) in
  let module LU = (val Option.get (Mpicd_ddtbench.Registry.find "NAS_LU_y")) in
  let lu_src = LU.create () in
  let lu_dst = Buf.create LU.wire_bytes in
  let obj =
    Mpicd_pickle.Pickle.(
      List (List.init 8 (fun _ -> Ndarray (ndarray ~dtype:U8 [| 4096 |]))))
  in
  Test.make_grouped ~name:"pack" ~fmt:"%s/%s"
    [
      Test.make ~name:"struct-simple-manual"
        (Staged.stage (fun () -> B.Struct_simple.manual_pack src ~count ~dst:packed));
      Test.make ~name:"struct-simple-ddt"
        (Staged.stage (fun () ->
             ignore (Dt.pack B.Struct_simple.derived ~count ~src ~dst:packed)));
      Test.make ~name:"struct-vec-manual"
        (Staged.stage (fun () ->
             B.Struct_vec.manual_pack sv_src ~count:4 ~dst:sv_packed));
      Test.make ~name:"double-vec-manual"
        (Staged.stage (fun () -> B.Double_vec.manual_pack dv ~dst:dv_packed));
      Test.make ~name:"nas-lu-y-manual"
        (Staged.stage (fun () -> LU.manual_pack lu_src ~dst:lu_dst));
      Test.make ~name:"nas-lu-y-cursor"
        (Staged.stage (fun () ->
             ignore
               (Plan.pack_range LU.plan ~count:1 ~src:lu_src ~packed_off:0
                  ~dst:lu_dst)));
      Test.make ~name:"pickle-dumps-inband"
        (Staged.stage (fun () -> ignore (Mpicd_pickle.Pickle.dumps obj)));
      Test.make ~name:"pickle-dumps-oob"
        (Staged.stage (fun () -> ignore (Mpicd_pickle.Pickle.dumps_oob obj)));
    ]

let micro () =
  let open Bechamel in
  let open Bechamel.Toolkit in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "%-36s %14s\n" "micro-benchmark" "ns/run";
  Printf.printf "%s\n" (String.make 52 '-');
  Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
  |> List.sort compare
  |> List.iter (fun (name, ols) ->
         match Analyze.OLS.estimates ols with
         | Some (est :: _) -> Printf.printf "%-36s %14.1f\n" name est
         | _ -> Printf.printf "%-36s %14s\n" name "n/a")

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let csv_dir = ref None in
  let keys = ref [] in
  let rec parse = function
    | [] -> ()
    | "--csv" :: dir :: rest ->
        (try Unix.mkdir dir 0o755
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        csv_dir := Some dir;
        parse rest
    | k :: rest ->
        keys := k :: !keys;
        parse rest
  in
  parse args;
  match List.rev !keys with
  | [ "micro" ] -> micro ()
  | [] ->
      Printf.printf "mpicd benchmark suite — regenerating all paper artifacts\n";
      Format.printf "(cost model: %a)@.@." Mpicd_simnet.Config.pp
        Mpicd_simnet.Config.default;
      List.iter (fun k -> run_one ?csv_dir:!csv_dir k) all_keys;
      micro ()
  | keys -> List.iter (fun k -> run_one ?csv_dir:!csv_dir k) keys
