(* fault-sweep: the same layers as the other workloads, used the way
   fault tolerance uses them.  A pass runs drop/corrupt/dup plans, each
   under two seeds, over the five chaos data paths through
   [Harness.pingpong ~faults] (the reliable protocol retransmits, acks
   and CRCs every fragment), checkpoint commit/restore rounds on 4
   ranks (and on 2, the base of [rank_scaling_ratio]), a random-mode
   [Explore.search] of both explore workloads (hundreds of tiny
   4-rank worlds), and one DDTBench pingpong recorded on an Obs sink
   and run through [Profile.analyze].  The workload seed derives every
   fault seed and the explorer seed. *)

module Buf = Mpicd_buf.Buf
module Mpi = Mpicd.Mpi
module Custom = Mpicd.Custom
module Dt = Mpicd_datatype.Datatype
module Fault = Mpicd_simnet.Fault
module Stats = Mpicd_simnet.Stats
module Config = Mpicd_simnet.Config
module H = Mpicd_harness.Harness
module Obs = Mpicd_obs.Obs
module Profile = Mpicd_obs.Profile
module Store = Mpicd_restart.Store
module Restart = Mpicd_restart.Restart
module Snapshot = Mpicd_restart.Snapshot
module Explore = Mpicd_explore_lib.Explore
module Workloads = Mpicd_explore_lib.Workloads
module Kernel = Mpicd_ddtbench.Kernel
module Registry = Mpicd_ddtbench.Registry
module M = Mpicd_figures.Methods

let name = "fault-sweep"

(* --- the five chaos data paths: (send buffer, receive buffer per
   rank, check a received buffer against the sent one) --- *)

let blocks_equal dt a b =
  let ok = ref true in
  Dt.iter_blocks dt ~count:1 ~f:(fun ~disp ~len ->
      if not (Buf.equal (Buf.sub a ~pos:disp ~len) (Buf.sub b ~pos:disp ~len)) then ok := false);
  !ok

type path = {
  bytes : int;
  send_buf : Mpi.buffer;
  recv_buf : int -> Mpi.buffer;
  intact : int -> bool;  (** rank's receive buffer equals what was sent *)
  reset : int -> unit;
}

let bytes_path n =
  let src = Layers.pattern n and dst = Array.init 2 (fun _ -> Buf.create n) in
  {
    bytes = n;
    send_buf = Mpi.Bytes src;
    recv_buf = (fun r -> Mpi.Bytes dst.(r));
    intact = (fun r -> Buf.equal src dst.(r));
    reset = (fun r -> Buf.fill dst.(r) '\000');
  }

let typed_path ~count =
  let dt = Dt.vector ~count ~blocklength:2 ~stride:4 Dt.int32 in
  let src = Layers.pattern (Dt.extent dt) and dst = Array.init 2 (fun _ -> Buf.create (Dt.extent dt)) in
  {
    bytes = Dt.size dt;
    send_buf = Mpi.Typed { dt; count = 1; base = src };
    recv_buf = (fun r -> Mpi.Typed { dt; count = 1; base = dst.(r) });
    intact = (fun r -> blocks_equal dt src dst.(r));
    reset = (fun r -> Buf.fill dst.(r) '\000');
  }

(* A custom datatype with a 4-byte packed length header plus the buffer
   itself as one zero-copy region: the iov path, which the transport
   cannot checksum fragment by fragment and falls back from on
   corruption. *)
let region_dt : Buf.t Custom.t =
  let header b i = (Buf.length b lsr (8 * i)) land 0xff in
  Custom.create
    {
      Custom.state = (fun _ ~count:_ -> ());
      state_free = ignore;
      query = (fun () _ ~count:_ -> 4);
      pack =
        (fun () b ~count:_ ~offset ~dst ->
          let len = min (Buf.length dst) (4 - offset) in
          for i = 0 to len - 1 do
            Buf.set_u8 dst i (header b (offset + i))
          done;
          len);
      unpack =
        (fun () b ~count:_ ~offset ~src ->
          for i = 0 to Buf.length src - 1 do
            if header b (offset + i) <> Buf.get_u8 src i then raise (Custom.Error 99)
          done);
      region_count = Some (fun () _ ~count:_ -> 1);
      regions = Some (fun () b ~count:_ -> [| b |]);
    }

let custom_path n =
  let p = bytes_path n in
  let src = match p.send_buf with Mpi.Bytes b -> b | _ -> assert false in
  let dst r = match p.recv_buf r with Mpi.Bytes b -> b | _ -> assert false in
  {
    p with
    send_buf = Mpi.Custom { dt = region_dt; obj = src; count = 1 };
    recv_buf = (fun r -> Mpi.Custom { dt = region_dt; obj = dst r; count = 1 });
  }

let paths =
  [
    ("eager-contig", fun () -> bytes_path 1024);
    ("rndv-contig", fun () -> bytes_path (128 * 1024));
    ("eager-generic", fun () -> typed_path ~count:64);
    ("rndv-generic", fun () -> typed_path ~count:4096);
    ("iov-custom", fun () -> custom_path 40000);
  ]

let plan_specs =
  [ ("drop", "drop=0.05,rto=5000"); ("corrupt", "corrupt=0.05,rto=5000"); ("dup", "dup=0.1") ]

let cells =
  List.concat_map (fun (p, mk) -> List.map (fun (f, spec) -> (p ^ "/" ^ f, mk, spec)) plan_specs) paths

let cell_reps = 10

(* Seed [i] of the run: a splitmix-style mix of the workload seed. *)
let derive seed i =
  let x = (seed * 0x9E3779B1) + (i * 0x85EBCA77) in
  let x = (x lxor (x lsr 15)) * 0x2C1B3C6D in
  1 + ((x lxor (x lsr 12)) land 0x3FFF_FFFF)

let parse_plan s =
  match Fault.of_string s with Ok p -> p | Error e -> failwith (Printf.sprintf "plan %S: %s" s e)

type cell_result = { damaged : int; counters : string }

(* One chaos cell: a verified pingpong under a fault plan.  Every
   delivered payload is compared with the sent one. *)
let run_cell tally plan mk =
  let p = mk () in
  let damaged = ref 0 in
  let impl () =
    {
      H.send = (fun comm ~dst ~tag -> Mpi.send comm ~dst ~tag p.send_buf);
      H.recv =
        (fun comm ~source ~tag ->
          let me = Mpi.rank comm in
          ignore (Mpi.recv comm ~source ~tag (p.recv_buf me));
          if not (p.intact me) then incr damaged;
          p.reset me);
    }
  in
  let r =
    Tally.section tally "ranks2" (fun () ->
        let r = H.pingpong ~warmup:1 ~reps:cell_reps ~faults:plan ~bytes:p.bytes impl in
        (r.H.stats.Stats.events_scheduled_total, r))
  in
  let s = r.H.stats in
  Tally.add_stats tally s;
  tally.Tally.payload <- tally.Tally.payload +. float_of_int (2 * cell_reps * p.bytes);
  {
    damaged = !damaged;
    counters =
      Printf.sprintf "retx=%d drop=%d corrupt=%d dup=%d ack=%d nack=%d iovfb=%d" s.Stats.retransmits
        s.Stats.frags_dropped s.Stats.frags_corrupted s.Stats.frags_duplicated s.Stats.acks
        s.Stats.nacks s.Stats.iov_fallbacks;
  }

let chaos tally plans =
  List.iter
    (fun (cell, mk, plan) ->
      Report.attempt ();
      let c = Trace.with_ "harness.pingpong:chaos" (fun () -> run_cell tally plan mk) in
      tally.Tally.execs <- tally.Tally.execs + 1;
      Report.check (c.damaged = 0) "chaos %s: %d damaged payload(s)" cell c.damaged)
    plans

(* --- checkpoint/restart rounds --- *)

let ckpt_rounds = 3

(* A strided float64 field whose packed image is 256 KiB per rank. *)
let ckpt_dt = Dt.vector ~count:16384 ~blocklength:2 ~stride:3 Dt.float64
let ckpt_image_bytes = Dt.size ckpt_dt

let fill_field buf ~seed ~round ~rank =
  for i = 0 to (Buf.length buf / 8) - 1 do
    Buf.set_f64 buf (8 * i) (float_of_int ((seed + (round * 131) + (rank * 17) + i) land 0xFFFFF))
  done

let restart_rounds tally ~seed ~ranks =
  let store = Store.create () in
  let w = Mpi.create_world ~size:ranks () in
  let bad = ref 0 in
  Tally.section tally (Printf.sprintf "ckpt%d" ranks) (fun () ->
      Mpi.run w (fun comm ->
          let me = Mpi.rank comm in
          let rt = Restart.create ~store ~job:"bench" comm in
          let field = Buf.create (Dt.extent ckpt_dt) in
          Restart.register rt ~name:"field" ~dt:ckpt_dt ~count:1 field;
          for round = 0 to ckpt_rounds - 1 do
            fill_field field ~seed ~round ~rank:me;
            let saved = Buf.copy field in
            Trace.with_ ~fiber:true "restart.commit" (fun () -> Restart.commit rt);
            Buf.fill field '\255';
            Trace.with_ ~fiber:true "restart.restore_to" (fun () -> Restart.restore_to rt ~epoch:round);
            if not (blocks_equal ckpt_dt saved field) then incr bad
          done);
      ((Mpi.world_stats w).Stats.events_scheduled_total, ()));
  Tally.add_stats tally (Mpi.world_stats w);
  for _ = 1 to ckpt_rounds do
    Report.attempt ()
  done;
  Report.check (!bad = 0) "restart on %d ranks: %d restore(s) not byte-identical" ranks !bad

(* --- exploration and the profiled kernel --- *)

let explore_budget = 300
let profiled_kernel = "NAS_MG_x"
let profiled_reps = 10

type state = {
  seed : int;
  plans : (string * (unit -> path) * Fault.t) list;
  profile_plan : Fault.t;
  timelines : (Workloads.t * Explore.timeline) list;
  record_s : float;  (** host time of [Explore.record] of both workloads *)
  mutable prune : float;
}

let setup_reps = 3

let setup ~seed =
  ignore (Mpicd_datatype.Plan.get ckpt_dt);
  (* every cell under two derived seeds, so a pass averages over more
     fault patterns than one seed gives *)
  let plans =
    List.concat
      (List.init 2 (fun rep ->
           List.mapi
             (fun i (cell, mk, spec) ->
               (cell, mk, parse_plan (Printf.sprintf "seed=%d,%s" (derive seed ((100 * rep) + i)) spec)))
             cells))
  in
  let profile_plan = parse_plan (Printf.sprintf "seed=%d,drop=0.02,corrupt=0.02,rto=5000" (derive seed 99)) in
  let timelines, record_s =
    Measure.time_s (fun () -> List.map (fun wl -> (wl, Explore.record wl)) Workloads.all)
  in
  { seed; plans; profile_plan; timelines; record_s; prune = nan }

let max_group = "ckpt4"
let min_group = "ckpt2"

let explore tally st =
  List.iteri
    (fun i (wl, tl) ->
      let r =
        Tally.section tally Tally.uncounted (fun () ->
            ( 0,
              Trace.with_ ("explore.search:" ^ wl.Workloads.wl_name) (fun () ->
                  Explore.search ~mode:Explore.Random ~k:3 ~budget:explore_budget
                    ~seed:(derive st.seed (1000 + i)) wl tl) ))
      in
      for _ = 1 to r.Explore.rp_runs do
        Report.attempt ()
      done;
      tally.Tally.execs <- tally.Tally.execs + r.Explore.rp_runs;
      Tally.bump tally "explore.runs" r.Explore.rp_runs;
      List.iter
        (fun c ->
          Report.check false "explore %s: counterexample %s (%s)" wl.Workloads.wl_name
            c.Explore.cex_render (String.concat "; " c.Explore.cex_failures))
        r.Explore.rp_cexs)
    st.timelines

let kernel () = Option.get (Registry.find profiled_kernel)

let profiled tally plan =
  Report.attempt ();
  let k = kernel () in
  let module K = (val k : Kernel.KERNEL) in
  let obs = Obs.create () in
  let r =
    Tally.section tally "ranks2" (fun () ->
        let r =
          Trace.with_ "harness.pingpong:profiled" (fun () ->
              H.pingpong ~reps:profiled_reps ~obs ~faults:plan ~bytes:K.wire_bytes (M.k_custom_pack k))
        in
        (r.H.stats.Stats.events_scheduled_total, r))
  in
  Tally.add_stats tally r.H.stats;
  tally.Tally.payload <- tally.Tally.payload +. float_of_int (2 * profiled_reps * K.wire_bytes);
  let p =
    Tally.section tally Tally.uncounted (fun () ->
        (0, Trace.with_ "obs.Profile.analyze" (fun () -> Profile.analyze obs)))
  in
  Tally.bump tally "obs.spans" (Obs.span_count obs);
  Tally.bump tally "obs.dropped" (Obs.dropped obs);
  List.iter
    (fun (rp : Profile.rank_profile) ->
      let ph = rp.Profile.phases in
      let sum =
        List.fold_left Int64.add 0L
          [ ph.Profile.pack; ph.Profile.wire; ph.Profile.unpack; ph.Profile.wait; ph.Profile.callback; ph.Profile.other ]
      in
      Report.check (sum = rp.Profile.total_ps) "profile rank %d: phases sum to %Ld ps, window %Ld ps"
        rp.Profile.rank sum rp.Profile.total_ps)
    p.Profile.ranks;
  r

let pass st tally =
  Trace.with_ "chaos" (fun () -> chaos tally st.plans);
  Trace.with_ "restart" (fun () ->
      restart_rounds tally ~seed:st.seed ~ranks:2;
      restart_rounds tally ~seed:st.seed ~ranks:4);
  Trace.with_ "explore" (fun () -> explore tally st);
  ignore (Trace.with_ "profiled" (fun () -> profiled tally st.profile_plan))

(* Golden checks on fixed seeds, independent of the workload seed:
   reliability counters of every chaos cell at plan seed 1, the
   explorer's reference fingerprints and exhaustive k=1 class counts,
   and the profiled pingpong unchanged by its Obs sink. *)
let verify st _ =
  let tally = Tally.create () in
  List.iter2
    (fun (cell, mk, spec) expected ->
      Report.attempt ();
      let c = run_cell tally (parse_plan ("seed=1," ^ spec)) mk in
      Report.check (c.damaged = 0) "golden %s: %d damaged payload(s)" cell c.damaged;
      Report.check (c.counters = expected) "golden %s: counters %s, golden %s" cell c.counters expected)
    cells Golden.fault_cells;
  let points = ref 0 and pruned = ref 0 in
  List.iter
    (fun (wl, tl) ->
      Report.attempt ();
      let r = Explore.search ~mode:Explore.Exhaustive ~k:1 ~budget:100_000 wl tl in
      points := !points + r.Explore.rp_points;
      pruned := !pruned + r.Explore.rp_pruned;
      let got =
        Printf.sprintf "ref=%s points=%d runs=%d classes=%d pruned=%d cex=%d"
          (Explore.fingerprint tl.Explore.tl_reference.Workloads.res_render)
          r.Explore.rp_points r.Explore.rp_runs r.Explore.rp_classes r.Explore.rp_pruned
          (List.length r.Explore.rp_cexs)
      in
      let expected = List.assoc wl.Workloads.wl_name Golden.explore in
      Report.check (got = expected) "golden explore %s: %s, golden %s" wl.Workloads.wl_name got expected)
    st.timelines;
  st.prune <- float_of_int !pruned /. float_of_int (max 1 !points);
  Report.attempt ();
  let k = kernel () in
  let module K = (val k : Kernel.KERNEL) in
  let plain =
    H.pingpong ~reps:profiled_reps ~faults:st.profile_plan ~bytes:K.wire_bytes (M.k_custom_pack k)
  in
  let traced = profiled tally st.profile_plan in
  Report.check (plain.H.latency_us = traced.H.latency_us)
    "profiled pingpong: latency %.17g us with an Obs sink, %.17g us without" traced.H.latency_us
    plain.H.latency_us

let layers st tally ~traced_passes =
  let passes = float_of_int (max 1 traced_passes) in
  let n, ns = Trace.total_ns "restart.commit" in
  Report.one "restart.commit.host_ms" "ms" (ns /. 1e6 /. float_of_int (max 1 n))
    ~note:"wait-inclusive: other ranks run inside";
  let _, ns = Trace.total_ns "obs.Profile.analyze" in
  Report.one "obs.profile.analyze_ms" "ms" (ns /. passes /. 1e6);
  Report.one "explore.record_ms" "ms" (st.record_s *. 1e3) ~note:"both explore workloads";
  Report.one "explore.prune_ratio" "ratio" st.prune ~note:"exhaustive k=1 sweep: pruned / points";
  let frag = Config.default.Config.link.Config.frag_size in
  let src = Layers.pattern (Dt.extent ckpt_dt) in
  let image = Snapshot.encode ~epoch:1 ~rank:0 ~cid:0 ~dt:ckpt_dt ~count:1 ~src () in
  let dst = Buf.create (Dt.extent ckpt_dt) in
  Layers.gb_row "restart.snapshot.encode_gb_per_s" ~bytes:ckpt_image_bytes
    (Measure.gb_per_s ~bytes:ckpt_image_bytes (fun () ->
         ignore (Snapshot.encode ~epoch:1 ~rank:0 ~cid:0 ~dt:ckpt_dt ~count:1 ~src ())));
  Layers.gb_row "restart.snapshot.decode_gb_per_s" ~bytes:ckpt_image_bytes
    (Measure.gb_per_s ~bytes:ckpt_image_bytes (fun () ->
         ignore (Snapshot.decode_exn ~dt:ckpt_dt ~count:1 ~dst image)));
  let module K = (val kernel () : Kernel.KERNEL) in
  Layers.datatypes ~frag
    [ (Dt.vector ~count:64 ~blocklength:2 ~stride:4 Dt.int32, 1);
      (Dt.vector ~count:4096 ~blocklength:2 ~stride:4 Dt.int32, 1);
      (ckpt_dt, 1); (K.derived, 1) ];
  Layers.crc32 ~frag;
  Layers.blit ~bytes:(1 lsl 20);
  Layers.evq ~live:(Tally.count tally "simnet.max_live_events");
  Layers.fiber_switch [ 2; 4 ];
  Layers.world_us_per_rank [ 2; 4 ];
  Layers.obs_span_pair ()
