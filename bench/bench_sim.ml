(* Wall-clock throughput benchmark of the simulation engine.

   Three things are measured:

   - queue churn ("hold" pattern): pop the minimum event and push a
     replacement at a later time, holding the number of live events
     constant — the steady state of a large simulation.  The retained
     reference binary heap ([Heap], the seed engine's queue, which
     allocates an entry record, a float box and an option per push and
     a tuple per pop) is run against the pooled calendar queue ([Evq],
     the engine's current queue: O(1) push, allocation-free steady
     state).  The hold level stands in for the rank count: a 1k-rank
     workload keeps ~1k events live.

   - whole-engine runs: [Harness.scale_allreduce] builds a 1024-rank
     (and, full mode, 4096-rank) world, runs binomial-tree allreduces
     over flat and fat-tree networks, and reports wall-clock events/sec
     plus peak live events and pool hit rate.

   - rank sweep: one 4-double allreduce plus a barrier over a flat
     network at 256, 1024 and 4096 ranks (host ns per event), and an
     empty create-world + run at each size (host us per rank).  Sizes
     run interleaved, one of each per round, so a slow spell of the
     host lands on every size alike.

   Usage:
     bench_sim.exe [--smoke] [--out FILE]

   Writes a JSON report (default BENCH_SIM.json) and exits nonzero if
   the pooled queue fails the >= 5x events/sec guard over the seed
   binary heap at the 1k hold level (the median of per-round ratios,
   the two queues timed back to back in each round), or if per-event
   cost grows with world size: host ns per event at 4096 ranks above
   2x that at 1024, or words allocated per event at 4096 above 1.5x
   that at 256.

   The time guard's base is 1024 ranks, not 256: a 256-rank world's
   working set fits a per-core L2 cache, so host ns per event steps up
   ~1.5-2x between 256 and 1024 ranks with no algorithmic cause (words
   per event stay flat).  Taken from 256, the ratio read 1.5-2.0 over
   repeated runs of the same code; from 1024 it reads 1.1-1.5, while a
   per-resume scan of every suspended fiber reads 2.8-3.1.  The
   allocation ratio does not depend on host speed or caches, so it
   keeps the 256 row in the guard. *)

module Heap = Mpicd_simnet.Heap
module Evq = Mpicd_simnet.Evq
module Topology = Mpicd_simnet.Topology
module Harness = Mpicd_harness.Harness
module Mpi = Mpicd.Mpi

let now = Monotonic_clock.now

(* Median-of-reps wall time of [f ()], in nanoseconds. *)
let time_ns ~reps f =
  f ();
  let samples =
    Array.init reps (fun _ ->
        let t0 = now () in
        f ();
        Int64.to_float (Int64.sub (now ()) t0))
  in
  Array.sort compare samples;
  samples.(reps / 2)

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

let wall_ns f =
  let t0 = now () in
  f ();
  Int64.to_float (Int64.sub (now ()) t0)

(* Deterministic delay stream shared by both queue variants (xorshift:
   no division, so generator cost doesn't drown the queue cost). *)
let lcg = ref 88172645463325252

let reset_lcg () = lcg := 88172645463325252

let next_delta () =
  let s = !lcg in
  let s = s lxor (s lsl 13) in
  let s = s lxor (s lsr 7) in
  let s = s lxor (s lsl 17) in
  lcg := s;
  float_of_int (1 + (s land 1023))

let nop () = ()

let churn_heap ~live ~ops =
  reset_lcg ();
  let h = Heap.create () in
  let seq = ref 0 in
  for _ = 1 to live do
    incr seq;
    Heap.push h ~time:(next_delta ()) ~seq:!seq nop
  done;
  for _ = 1 to ops do
    match Heap.pop h with
    | None -> assert false
    | Some (time, _, f) ->
        f ();
        incr seq;
        Heap.push h ~time:(time +. next_delta ()) ~seq:!seq f
  done

let churn_evq ~live ~ops =
  reset_lcg ();
  let q = Evq.create () in
  let seq = ref 0 in
  for _ = 1 to live do
    incr seq;
    Evq.push q ~time:(next_delta ()) ~seq:!seq nop
  done;
  for _ = 1 to ops do
    let time = Evq.min_time q in
    let f = Evq.pop_min q in
    f ();
    incr seq;
    Evq.push q ~time:(time +. next_delta ()) ~seq:!seq f
  done

type queue_row = {
  q_live : int;
  q_ops : int;
  heap_ns : float;  (* median over rounds *)
  evq_ns : float;
  q_speedup : float;  (* median of the per-round heap/evq ratios *)
}

let events_per_sec ops ns = if ns > 0. then float_of_int ops /. (ns /. 1e9) else 0.

(* [reps] measured rounds after one warm-up round; each round times the
   heap and the pooled queue back to back, alternating which goes
   first, so a slow spell of the host lands on both sides of that
   round's ratio. *)
let bench_queue ~reps ~ops live =
  let heap = Array.make reps 0. and evq = Array.make reps 0. in
  for round = -1 to reps - 1 do
    let time churn = wall_ns (fun () -> churn ~live ~ops) in
    let h, e =
      if round land 1 = 0 then
        let h = time churn_heap in
        (h, time churn_evq)
      else
        let e = time churn_evq in
        (time churn_heap, e)
    in
    if round >= 0 then begin
      heap.(round) <- h;
      evq.(round) <- e
    end
  done;
  {
    q_live = live;
    q_ops = ops;
    heap_ns = median heap;
    evq_ns = median evq;
    q_speedup = median (Array.init reps (fun i -> heap.(i) /. evq.(i)));
  }

let json_of_queue_row r =
  Printf.sprintf
    {|    { "live": %d, "ops": %d,
      "heap": { "ns": %.0f, "events_per_sec": %.0f },
      "evq": { "ns": %.0f, "events_per_sec": %.0f },
      "speedup": %.3f }|}
    r.q_live r.q_ops r.heap_ns
    (events_per_sec r.q_ops r.heap_ns)
    r.evq_ns
    (events_per_sec r.q_ops r.evq_ns)
    r.q_speedup

type engine_row = {
  e_ranks : int;
  e_topology : string;
  e_wall_ns : float;
  e_result : Harness.scale_result;
}

let bench_engine ~iters ~elems ~ranks topology =
  let result = ref None in
  let wall_ns =
    time_ns ~reps:1 (fun () ->
        result := Some (Harness.scale_allreduce ?topology ~iters ~elems ~ranks ()))
  in
  let r = Option.get !result in
  { e_ranks = ranks; e_topology = r.Harness.topology; e_wall_ns = wall_ns; e_result = r }

let json_of_engine_row e =
  let r = e.e_result in
  Printf.sprintf
    {|    { "ranks": %d, "topology": %S, "wall_ms": %.1f,
      "events": %d, "events_per_sec": %.0f, "pooled": %d, "max_live_events": %d,
      "sim_time_ms": %.3f, "wall_per_sim_second": %.1f,
      "congestion_events": %d, "congestion_wait_ms": %.3f, "checksum": %.1f }|}
    e.e_ranks e.e_topology (e.e_wall_ns /. 1e6) r.Harness.events
    (events_per_sec r.Harness.events e.e_wall_ns)
    r.Harness.pooled r.Harness.max_live
    (r.Harness.sim_time_ns /. 1e6)
    (if r.Harness.sim_time_ns > 0. then e.e_wall_ns /. r.Harness.sim_time_ns
     else 0.)
    r.Harness.congestion_events
    (r.Harness.congestion_wait_ns /. 1e6)
    r.Harness.checksum

type sweep_row = {
  s_ranks : int;
  s_events : int;
  s_ns : float;  (* median wall of the allreduce + barrier run *)
  s_words : float;  (* words allocated by that run *)
  s_empty_ns : float;  (* median wall of an empty create-world + run *)
}

let ns_per_event r = r.s_ns /. float_of_int r.s_events
let words_per_event r = r.s_words /. float_of_int r.s_events
let us_per_rank r = r.s_empty_ns /. 1e3 /. float_of_int r.s_ranks

(* [rounds] measured rounds after one warm-up round; each round runs
   every size once, the allreduce then the empty world. *)
let rank_sweep ~rounds sizes =
  let sizes = Array.of_list sizes in
  let k = Array.length sizes in
  let run_ns = Array.make_matrix k rounds 0.
  and empty_ns = Array.make_matrix k rounds 0.
  and events = Array.make k 0
  and words = Array.make k 0. in
  for round = -1 to rounds - 1 do
    Array.iteri
      (fun i ranks ->
        let w0 = Gc.allocated_bytes () in
        let ns =
          wall_ns (fun () ->
              let r = Harness.scale_allreduce ~iters:1 ~elems:4 ~ranks () in
              events.(i) <- r.Harness.events)
        in
        words.(i) <- (Gc.allocated_bytes () -. w0) /. 8.;
        let ens =
          wall_ns (fun () -> Mpi.run (Mpi.create_world ~size:ranks ()) ignore)
        in
        if round >= 0 then begin
          run_ns.(i).(round) <- ns;
          empty_ns.(i).(round) <- ens
        end)
      sizes
  done;
  List.init k (fun i ->
      {
        s_ranks = sizes.(i);
        s_events = events.(i);
        s_ns = median run_ns.(i);
        s_words = words.(i);
        s_empty_ns = median empty_ns.(i);
      })

let json_of_sweep_row r =
  Printf.sprintf
    {|    { "ranks": %d, "events": %d, "wall_ms": %.2f, "ns_per_event": %.0f,
      "words_per_event": %.1f, "empty_wall_ms": %.2f, "empty_us_per_rank": %.2f }|}
    r.s_ranks r.s_events (r.s_ns /. 1e6) (ns_per_event r) (words_per_event r)
    (r.s_empty_ns /. 1e6) (us_per_rank r)

let max_rank_scaling = 2.0
let max_alloc_scaling = 1.5

let () =
  let smoke = ref false and out = ref "BENCH_SIM.json" in
  let rec parse = function
    | [] -> ()
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--out" :: file :: rest ->
        out := file;
        parse rest
    | arg :: _ ->
        Printf.eprintf "bench_sim: unknown argument %S\n" arg;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let reps = if !smoke then 5 else 11 in
  let ops = if !smoke then 200_000 else 2_000_000 in
  let queue_rows = List.map (bench_queue ~reps ~ops) [ 1024; 4096 ] in
  let engine_rows =
    let iters = if !smoke then 1 else 4 and elems = if !smoke then 4 else 64 in
    let at ranks =
      [
        bench_engine ~iters ~elems ~ranks None;
        bench_engine ~iters ~elems ~ranks
          (Some (Topology.fat_tree ~nranks:ranks ()));
      ]
    in
    at 1024 @ (if !smoke then [] else at 4096)
  in
  let sweep_rows = rank_sweep ~rounds:(if !smoke then 3 else 7) [ 256; 1024; 4096 ] in
  let r1k = List.find (fun r -> r.q_live = 1024) queue_rows in
  (* At the 1k-rank hold level the pooled calendar queue must move
     events at >= 5x the seed binary heap's rate. *)
  let queue_ok = r1k.q_speedup >= 5.0 in
  (* Linear rank scaling: per-event host time and allocation at the
     largest world within a constant of the smaller ones. *)
  let row n = List.find (fun r -> r.s_ranks = n) sweep_rows in
  let rank_scaling = ns_per_event (row 4096) /. ns_per_event (row 1024) in
  let rank_scaling_256 = ns_per_event (row 4096) /. ns_per_event (row 256) in
  let alloc_scaling = words_per_event (row 4096) /. words_per_event (row 256) in
  let scaling_ok =
    rank_scaling <= max_rank_scaling && alloc_scaling <= max_alloc_scaling
  in
  let guard_ok = queue_ok && scaling_ok in
  let oc = open_out !out in
  Printf.fprintf oc
    {|{
  "smoke": %b,
  "reps": %d,
  "queue": [
%s
  ],
  "engine": [
%s
  ],
  "rank_sweep": [
%s
  ],
  "guard": {
    "min_speedup_1k": 5.0,
    "speedup_1k": %.3f,
    "max_rank_scaling_4096_1024": %.1f,
    "rank_scaling_4096_1024": %.3f,
    "rank_scaling_4096_256": %.3f,
    "max_alloc_scaling_4096_256": %.1f,
    "alloc_scaling_4096_256": %.3f,
    "ok": %b
  }
}
|}
    !smoke reps
    (String.concat ",\n" (List.map json_of_queue_row queue_rows))
    (String.concat ",\n" (List.map json_of_engine_row engine_rows))
    (String.concat ",\n" (List.map json_of_sweep_row sweep_rows))
    r1k.q_speedup max_rank_scaling rank_scaling rank_scaling_256
    max_alloc_scaling alloc_scaling guard_ok;
  close_out oc;
  List.iter
    (fun r ->
      Printf.printf
        "queue hold=%-5d heap %8.0f ev/s  evq %8.0f ev/s  (%.2fx)\n" r.q_live
        (events_per_sec r.q_ops r.heap_ns)
        (events_per_sec r.q_ops r.evq_ns)
        r.q_speedup)
    queue_rows;
  List.iter
    (fun e ->
      Printf.printf
        "engine ranks=%-5d %-9s %8.0f ev/s  peak_live=%d  wall=%.0f ms\n"
        e.e_ranks e.e_topology
        (events_per_sec e.e_result.Harness.events e.e_wall_ns)
        e.e_result.Harness.max_live (e.e_wall_ns /. 1e6))
    engine_rows;
  List.iter
    (fun r ->
      Printf.printf
        "sweep  ranks=%-5d %6.0f ns/event  %5.1f words/event  empty %5.2f us/rank  wall=%.1f ms\n"
        r.s_ranks (ns_per_event r) (words_per_event r) (us_per_rank r) (r.s_ns /. 1e6))
    sweep_rows;
  Printf.printf "1k-hold speedup: %.2fx; guard (>=5x): %s\n" r1k.q_speedup
    (if queue_ok then "ok" else "FAIL");
  Printf.printf
    "rank scaling ns/event 4096/1024: %.2fx (<=%.1fx), 4096/256: %.2fx; \
     words/event 4096/256: %.2fx (<=%.1fx); guard: %s\n"
    rank_scaling max_rank_scaling rank_scaling_256 alloc_scaling max_alloc_scaling
    (if scaling_ok then "ok" else "FAIL");
  if not guard_ok then exit 1
