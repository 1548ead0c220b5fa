(* Layer rows: each times one layer's public function from outside, on
   inputs the calling workload passes in (its own kernels, objects,
   fragment sizes, image sizes and hold levels).  Every GB/s row is
   also given as a fraction of [Buf.blit] moving the same number of
   bytes in the same process, the memcpy-class yardstick. *)

module Buf = Mpicd_buf.Buf
module Evq = Mpicd_simnet.Evq
module Engine = Mpicd_simnet.Engine
module Dt = Mpicd_datatype.Datatype
module Plan = Mpicd_datatype.Plan
module Crc32 = Mpicd_ucx.Crc32
module Mpi = Mpicd.Mpi
module Obs = Mpicd_obs.Obs

let pattern n =
  let b = Buf.create n in
  for i = 0 to n - 1 do
    Buf.set_u8 b i ((i * 31 + 7) land 0xff)
  done;
  b

let blit_gb_per_s bytes =
  let src = pattern bytes and dst = Buf.create bytes in
  Measure.gb_per_s ~bytes (fun () -> Buf.blit ~src ~src_pos:0 ~dst ~dst_pos:0 ~len:bytes)

(* Report a GB/s row and its fraction of a same-sized blit. *)
let gb_row name ~bytes gbs =
  let blit = blit_gb_per_s bytes in
  Report.one name "GB/s" gbs;
  Report.one (name ^ ".of_blit") "ratio" (gbs /. blit)
    ~note:(Printf.sprintf "base: Buf.blit of %d B at %.3g GB/s" bytes blit)

(* Several inputs timed as one row: total bytes over total time. *)
let gb_row_over name inputs =
  let bytes = List.fold_left (fun acc (b, _) -> acc + b) 0 inputs in
  let secs = List.fold_left (fun acc (_, f) -> acc +. Measure.per_call_s f) 0. inputs in
  gb_row name ~bytes (float_of_int bytes /. secs /. 1e9)

let blit ~bytes =
  Report.one "buf.blit.gb_per_s" "GB/s" (blit_gb_per_s bytes)
    ~note:(Printf.sprintf "Buf.blit of %d B" bytes)

(* push + pop_min on a queue holding [live] events (the hold pattern). *)
let evq ~live =
  let live = max 1 live in
  let q = Evq.create () in
  let seq = ref 0 and x = ref 88172645463325252 in
  let delta () =
    let s = !x lxor (!x lsl 13) in
    let s = s lxor (s lsr 7) in
    let s = s lxor (s lsl 17) in
    x := s;
    float_of_int (1 + (s land 1023))
  in
  for _ = 1 to live do
    incr seq;
    Evq.push q ~time:(delta ()) ~seq:!seq ()
  done;
  let ops = 10_000 in
  let secs =
    Measure.per_call_s (fun () ->
        for _ = 1 to ops do
          let t = Evq.min_time q in
          Evq.pop_min q;
          incr seq;
          Evq.push q ~time:(t +. delta ()) ~seq:!seq ()
        done)
  in
  Report.one "simnet.evq.ns_per_op" "ns" (secs *. 1e9 /. float_of_int ops)
    ~note:(Printf.sprintf "push+pop_min at %d live events" live)

(* A fiber switch as seen from outside the engine: [fibers] fibers each
   sleeping [rounds] times, so every sleep suspends one fiber and
   resumes the next through the event queue. *)
let fiber_switch_ns ~fibers =
  let rounds = max 4 (200_000 / fibers) in
  let secs =
    Measure.per_call_s ~samples:3 (fun () ->
        let e = Engine.create () in
        for _ = 1 to fibers do
          Engine.spawn e (fun () ->
              for _ = 1 to rounds do
                Engine.sleep e 1.
              done)
        done;
        Engine.run e)
  in
  secs *. 1e9 /. float_of_int (fibers * rounds)

let fiber_switch sizes =
  List.iter
    (fun n ->
      Report.one (Printf.sprintf "simnet.engine.fiber_switch_ns.f%d" n) "ns" (fiber_switch_ns ~fibers:n))
    sizes

(* An empty world: create plus run with no rank work. *)
let world_us_per_rank sizes =
  List.iter
    (fun n ->
      let secs =
        Measure.per_call_s ~samples:3 (fun () -> Mpi.run (Mpi.create_world ~size:n ()) ignore)
      in
      Report.one (Printf.sprintf "core.world.us_per_rank.n%d" n) "us" (secs *. 1e6 /. float_of_int n))
    sizes

let crc32 ~frag =
  let b = pattern frag in
  gb_row "ucx.crc32.gb_per_s" ~bytes:frag
    (Measure.gb_per_s ~bytes:frag (fun () -> ignore (Crc32.digest b)))

(* Plan and interpreter rows over the workload's datatypes, each a
   (datatype, count) pair laid out from offset 0. *)
let datatypes ~frag dts =
  let inputs =
    List.map
      (fun (dt, count) ->
        let size = Dt.packed_size dt ~count in
        let extent = Dt.ub dt + (count * Dt.extent dt) in
        (dt, count, size, pattern extent, Buf.create extent, Buf.create size))
      dts
  in
  let plans = List.map (fun (dt, _, _, _, _, _) -> Plan.build dt) inputs in
  let zip f = List.map2 f inputs plans in
  gb_row_over "datatype.plan.pack_gb_per_s"
    (zip (fun (_, count, size, src, _, packed) plan ->
         (size, fun () -> ignore (Plan.pack plan ~count ~src ~dst:packed))));
  gb_row_over "datatype.plan.unpack_gb_per_s"
    (zip (fun (_, count, size, _, dst, packed) plan ->
         (size, fun () -> Plan.unpack plan ~count ~src:packed ~dst)));
  gb_row_over "datatype.plan.frag_pack_gb_per_s"
    (zip (fun (_, count, size, src, _, _) plan ->
         let frag_buf = Buf.create frag in
         ( size,
           fun () ->
             let cursor = Plan.cursor plan in
             let off = ref 0 in
             while !off < size do
               let len = min frag (size - !off) in
               off :=
                 !off
                 + Plan.pack_range ~cursor plan ~count ~src ~packed_off:!off
                     ~dst:(Buf.sub frag_buf ~pos:0 ~len)
             done )));
  let build_s =
    List.fold_left
      (fun acc (dt, _, _, _, _, _) -> acc +. Measure.per_call_s (fun () -> ignore (Plan.build dt)))
      0. inputs
  in
  Report.one "datatype.plan.build_us" "us" (build_s *. 1e6 /. float_of_int (List.length inputs))
    ~note:(Printf.sprintf "mean over %d datatypes" (List.length inputs));
  gb_row_over "datatype.interp.pack_gb_per_s"
    (List.map
       (fun (dt, count, size, src, _, packed) ->
         (size, fun () -> ignore (Dt.pack dt ~count ~src ~dst:packed)))
       inputs);
  gb_row_over "datatype.interp.unpack_gb_per_s"
    (List.map
       (fun (dt, count, size, _, dst, packed) ->
         (size, fun () -> Dt.unpack dt ~count ~src:packed ~dst))
       inputs)

(* Cost of one span begin/end pair on a live Obs sink. *)
let obs_span_pair () =
  let pairs = 10_000 in
  let secs =
    Measure.per_call_s (fun () ->
        let o = Obs.create ~max_events:(2 * pairs) () in
        for i = 1 to pairs do
          let s = Obs.span_begin o ~time:(float_of_int i) ~track:0 ~cat:"bench" "pair" in
          Obs.span_end o ~time:(float_of_int i +. 0.5) s
        done)
  in
  Report.one "obs.span_pair_ns" "ns" (secs *. 1e9 /. float_of_int pairs)
