(* Benchmark runner: one workload per process, on one domain.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Workload passes run until S seconds have passed, and at least
   [min_passes] of them, so the medians have three samples even on
   paper-figs, whose passes take over ten seconds.  Before each pass
   the set-up runs [setup_reps] times; [setup_s] is the median of all
   set-ups.  Then the untimed golden checks run.
   With --trace 1, passes alternate untraced and traced, the layer rows
   are measured, and the spans are written to
   .bench_out/spans-NAME.json.  Prints a report, then one JSON line
   holding every metric measured; exits 1 if any output check
   failed. *)

let min_passes = 3

let workloads : (module Workload.S) list =
  [ (module Paper_figs); (module Rank_scale); (module Fault_sweep) ]

(* End-to-end metrics, from the untraced passes.  Each must read a
   finite value above 0. *)
type pass = { index : int; wall : float; tally : Tally.t; traced : bool }

let end_to_end (module W : Workload.S) passes ~peak_heap_words =
  let untraced =
    List.filter_map (fun p -> if p.traced then None else Some (p.wall, p.tally)) passes
  in
  let s = Tally.summarize untraced in
  let _, first = List.hd untraced in
  let m ?note name unit_ v =
    Report.check (Float.is_finite v && v > 0.) "end-to-end metric %s is %g" name v;
    Report.one ?note name unit_ v
  in
  m "wall_s" "s" s.Tally.pass_s
    ~note:(Printf.sprintf "sum of per-section medians over %d passes" (List.length untraced));
  m "events_per_s" "1/s" (float_of_int s.Tally.events /. s.Tally.counted_s);
  m "payload_gb_per_s" "GB/s" (first.Tally.payload /. s.Tally.counted_s /. 1e9);
  m "ns_per_event_at_max" "ns" (s.Tally.ns_per_event W.max_group);
  m "rank_scaling_ratio" "x" (s.Tally.ns_per_event W.max_group /. s.Tally.ns_per_event W.min_group);
  m "execs_per_s" "1/s" (float_of_int first.Tally.execs /. s.Tally.pass_s);
  m "alloc_words_per_event" "words" (s.Tally.words /. float_of_int s.Tally.events);
  m "peak_heap_mb" "MB" (float_of_int (peak_heap_words * (Sys.word_size / 8)) /. 1048576.)
    ~note:(Printf.sprintf "after the first %d passes" min_passes)

let counter_rows tally =
  List.iter
    (fun name -> Report.one name "count" (float_of_int (Tally.count tally name)))
    [
      "simnet.events"; "simnet.max_live_events"; "simnet.topology.congestion_events";
      "ucx.messages"; "ucx.bytes_on_wire"; "ucx.eager_messages"; "ucx.rndv_messages";
      "ucx.iov_entries"; "ucx.memcpys"; "ucx.bytes_copied"; "ucx.retransmits";
      "ucx.frags_dropped"; "ucx.frags_corrupted"; "ucx.acks"; "ucx.nacks"; "ucx.iov_fallbacks";
      "restart.checkpoint_bytes"; "obs.spans"; "obs.dropped"; "explore.runs";
    ];
  let c = Tally.count tally in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  Report.one "simnet.pooled_ratio" "ratio" (ratio (c "simnet.pooled") (c "simnet.events"));
  Report.one "datatype.plan.cache_hit_ratio" "ratio"
    (ratio (c "datatype.plan.cache_hits") (c "datatype.plan.cache_hits" + c "datatype.plan.cache_misses"))

(* Hunold-style self-consistency of the trace: in every traced pass the
   self times of the span tree (see [Trace.tiling]) add up to the
   pass's wall time, which is measured around the pass, outside the
   trace. *)
let trace_rows passes =
  let traced = List.filter (fun p -> p.traced) passes in
  let walls traced = List.filter_map (fun p -> if p.traced = traced then Some p.wall else None) passes in
  Report.one "trace.overhead_s" "s"
    (Measure.median (walls true) -. Measure.median (walls false))
    ~note:"traced wall_s minus untraced wall_s, same run";
  let shares =
    List.map
      (fun p ->
        match Trace.tiling p.index with
        | None ->
            Report.check false "traced pass %d has no root span" p.index;
            nan
        | Some t ->
            let tiled = t.Trace.tiled_ns /. 1e9 in
            Report.check
              (Float.abs (tiled -. p.wall) <= (1e-3 *. p.wall) +. 1e-4)
              "traced pass %d: span self times sum to %.6f s, pass wall %.6f s" p.index tiled p.wall;
            Printf.printf
              "traced pass %d: wall %.6f s; span self times %.6f s; top-level spans %.6f s + uncovered %.6f s\n"
              p.index p.wall tiled (t.Trace.tops_ns /. 1e9) (t.Trace.root_self_ns /. 1e9);
            t.Trace.root_self_ns /. t.Trace.root_ns)
      traced
  in
  Report.add "trace.uncovered_share" "ratio" shares

let print_self_times () =
  Printf.printf "\n%-40s %7s %12s %12s  %s\n" "span (layer call)" "count" "total_ms" "self_ms" "";
  List.iter
    (fun (name, n, tot, self, wait) ->
      Printf.printf "%-40s %7d %12.3f %12.3f  %s\n" name n (tot /. 1e6) (self /. 1e6)
        (if wait then "wait-inclusive" else ""))
    (Trace.by_name ())

let run (module W : Workload.S) ~seed ~seconds ~trace =
  Printf.printf "workload %s, seed %d, %d s, trace %b\n%!" W.name seed seconds trace;
  let setups = ref [] and state = ref None and passes = ref [] and peak_heap_words = ref 0 in
  (* Set-ups are spread over the run, [setup_reps] before each pass, so
     their median does not hang on one spell of host noise; the last
     set-up's state feeds the pass. *)
  let setup () =
    Gc.full_major ();
    let st, secs = Measure.time_s (fun () -> W.setup ~seed) in
    setups := secs :: !setups;
    state := Some st;
    st
  in
  let t0 = Measure.now_s () in
  while List.length !passes < min_passes || Measure.now_s () -. t0 < float_of_int seconds do
    for _ = 2 to W.setup_reps do
      ignore (setup ())
    done;
    let st = setup () in
    let index = List.length !passes in
    let traced = trace && index mod 2 = 1 in
    let tally = Tally.create () in
    Gc.full_major ();
    Trace.enabled := traced;
    let (), wall =
      Measure.time_s (fun () -> Trace.pass ~id:index ("pass:" ^ W.name) (fun () -> W.pass st tally))
    in
    Trace.enabled := false;
    Printf.printf "pass %d%s: %.3f s\n%!" index (if traced then " (traced)" else "") wall;
    passes := { index; wall; tally; traced } :: !passes;
    (* The peak heap is read after a fixed amount of work: on a long
       run it keeps creeping up, so reading it at the end would tie it
       to how many passes the host's speed allowed. *)
    if index = min_passes - 1 then peak_heap_words := (Gc.quick_stat ()).Gc.top_heap_words
  done;
  Report.add "setup_s" "s" !setups;
  let st = Option.get !state in
  let passes = List.rev !passes in
  let first = (List.hd passes).tally in
  List.iter
    (fun p ->
      List.iter2
        (fun (k, v) (_, v0) ->
          Report.check (v = v0) "pass %d: simulated counter %s is %d, pass 0 had %d" p.index k v v0)
        (Tally.counts p.tally) (Tally.counts first))
    passes;
  W.verify st first;
  end_to_end (module W) passes ~peak_heap_words:!peak_heap_words;
  if trace then begin
    counter_rows first;
    trace_rows passes;
    W.layers st first ~traced_passes:(List.length (List.filter (fun p -> p.traced) passes));
    print_self_times ();
    let path = Report.out_path ("spans-" ^ W.name ^ ".json") in
    Trace.to_json path;
    Printf.printf "spans: %s\n" path
  end

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME paper-figs | rank-scale | fault-sweep");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun (module W : Workload.S) -> W.name = !workload) workloads with
  | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  | Some w ->
      (try run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
       with e -> Report.check false "raised %s" (Printexc.to_string e));
      Report.one "error_rate" "ratio"
        (float_of_int !Report.failed /. float_of_int (max 1 !Report.attempted))
        ~note:(Printf.sprintf "%d failed of %d attempted" !Report.failed !Report.attempted);
      Report.print_table ();
      List.iter (Printf.printf "MISMATCH %s\n") (List.rev !Report.mismatches);
      print_endline (Report.json_line (List.rev_map (fun m -> m.Report.name) !Report.metrics));
      exit (if !Report.failed = 0 then 0 else 1)
