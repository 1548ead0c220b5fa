(* rank-scale: one float64 allreduce plus a barrier (the body of
   [Harness.scale_allreduce], driven here through [Mpi] and
   [Collectives] so the pass can read each world's counters) over a
   flat network at 256, 1024 and 4096 ranks and over a fat-tree at
   1024, plus an empty create-world + run at each size.  Almost no
   payload: host time goes to the engine, fiber switching, communicator
   set-up and matching.  Inputs are deterministic; the seed is not
   used. *)

module Mpi = Mpicd.Mpi
module Coll = Mpicd_collectives.Collectives
module Topology = Mpicd_simnet.Topology
module Engine = Mpicd_simnet.Engine
module Stats = Mpicd_simnet.Stats
module H = Mpicd_harness.Harness

let name = "rank-scale"
let sizes = [ 256; 1024; 4096 ]
let elems = 4

(* (label, ranks, fat-tree?) *)
let n256 = ("n256", 256, false)
let n1024 = ("n1024", 1024, false)
let n4096 = ("n4096", 4096, false)
let fattree1024 = ("fattree1024", 1024, true)
let runs = [ n256; n1024; n4096; fattree1024 ]

(* One pass: 16 worlds of 256 ranks, 4 of 1024, 1 of 4096 and 2 fat-tree
   worlds of 1024.  The small worlds repeat so each size's host time per
   event averages over comparable time, and they are spread around the
   large ones so that both ends of [rank_scaling_ratio] see the same
   spells of host interference. *)
let schedule =
  List.concat_map
    (fun (run, reps) -> List.init reps (fun _ -> run))
    [ (n256, 4); (n1024, 2); (n256, 4); (n4096, 1); (n256, 4); (fattree1024, 2); (n256, 4); (n1024, 2) ]

type state = unit

let setup_reps = 2
let largest = List.fold_left max 0 sizes

let empty_world n =
  let w = Trace.with_ "core.Mpi.create_world" (fun () -> Mpi.create_world ~size:n ()) in
  Trace.with_ "core.Mpi.run(empty)" (fun () -> Mpi.run w ignore);
  w

let setup ~seed:_ = ignore (empty_world largest)
let max_group = "n4096"
let min_group = "n256"

type outcome = { sim_time_ns : float; checksum : float }

let allreduce tally (label, ranks, fat) =
  Report.attempt ();
  let topology = if fat then Some (Topology.fat_tree ~nranks:ranks ()) else None in
  let w, checksum =
    Trace.with_ ("collectives.allreduce:" ^ label) (fun () ->
        Tally.section ~collect:true tally label (fun () ->
            let w =
              Trace.with_ "core.Mpi.create_world" (fun () -> Mpi.create_world ?topology ~size:ranks ())
            in
            let checksum = ref nan in
            Mpi.run w (fun comm ->
                let me = Mpi.rank comm in
                let data = Array.init elems (fun i -> float_of_int (me + i)) in
                Coll.allreduce_f64 comm ~op:`Sum data;
                Coll.barrier comm;
                if me = 0 then checksum := data.(0));
            ((Mpi.world_stats w).Stats.events_scheduled_total, (w, !checksum))))
  in
  let stats = Mpi.world_stats w in
  Tally.add_stats tally stats;
  tally.Tally.payload <- tally.Tally.payload +. float_of_int stats.Stats.bytes_on_wire;
  tally.Tally.execs <- tally.Tally.execs + 1;
  Option.iter
    (fun t -> Tally.bump tally "simnet.topology.congestion_events" (Topology.congestion_events t))
    topology;
  { sim_time_ns = Engine.now (Mpi.world_engine w); checksum }

let golden = Golden.rank_scale

let pass () tally =
  List.iter
    (fun n ->
      Tally.section ~collect:true tally ("empty" ^ string_of_int n) (fun () ->
          let w = empty_world n in
          ((Mpi.world_stats w).Stats.events_scheduled_total, ())))
    sizes;
  List.iter
    (fun ((label, ranks, _) as run) ->
      let o = allreduce tally run in
      let closed_form = float_of_int (ranks * (ranks - 1) / 2) in
      Report.check (o.checksum = closed_form) "%s: checksum %.17g, closed form %.17g" label
        o.checksum closed_form;
      let sim = List.assoc label golden in
      Report.check (o.sim_time_ns = sim) "%s: virtual time %.17g ns, golden %.17g" label
        o.sim_time_ns sim)
    schedule

(* The pass reproduces [Harness.scale_allreduce] exactly. *)
let verify () _ =
  Report.attempt ();
  let r = H.scale_allreduce ~elems ~ranks:256 () in
  let o = allreduce (Tally.create ()) n256 in
  Report.check
    (r.H.sim_time_ns = o.sim_time_ns && r.H.checksum = o.checksum)
    "Harness.scale_allreduce at 256 ranks: %.17g ns / %.17g, pass: %.17g ns / %.17g"
    r.H.sim_time_ns r.H.checksum o.sim_time_ns o.checksum

let layers () tally ~traced_passes:_ =
  List.iter
    (fun (label, _, _) ->
      let n, ns = Trace.total_ns ("collectives.allreduce:" ^ label) in
      Report.one ("collectives.allreduce.host_ms." ^ label) "ms" (ns /. float_of_int (max 1 n) /. 1e6))
    runs;
  Layers.fiber_switch sizes;
  Layers.world_us_per_rank sizes;
  Layers.evq ~live:(Tally.count tally "simnet.max_live_events");
  Layers.datatypes ~frag:(elems * 8) [ (Mpicd_datatype.Datatype.float64, elems) ];
  Layers.crc32 ~frag:(elems * 8);
  Layers.blit ~bytes:(1 lsl 20)
