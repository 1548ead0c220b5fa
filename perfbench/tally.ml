(* What one workload pass did: host time, allocation and simulator
   events per timed section, payload moved, executions completed, and
   the simulator's own counters summed over every world of the pass.
   Simulated counters repeat exactly from pass to pass; host times do
   not. *)

module Stats = Mpicd_simnet.Stats

type section = { group : string; secs : float; events : int; words : float }

type t = {
  mutable sections : section list;  (** most recent first *)
  mutable payload : float;  (** simulated payload bytes moved *)
  mutable execs : int;  (** executions completed (see [execs_per_s]) *)
  counts : (string, int) Hashtbl.t;
}

let create () = { sections = []; payload = 0.; execs = 0; counts = Hashtbl.create 32 }

(* Sections in this group run worlds whose events the benchmark cannot
   read; they count toward [wall_s] only. *)
let uncounted = "uncounted"

(* Time [f], which returns the simulator events it caused, as one
   section of [group].  With [~collect], the section ends with a full
   major collection, so a large world pays for collecting its own
   garbage instead of leaving it to whichever section runs next. *)
let section ?(collect = false) t group f =
  let w0 = Measure.alloc_words () in
  let t0 = Measure.now_s () in
  let events, r = f () in
  if collect then Gc.full_major ();
  let secs = Measure.now_s () -. t0 in
  t.sections <- { group; secs; events; words = Measure.alloc_words () -. w0 } :: t.sections;
  r

let bump t name n =
  Hashtbl.replace t.counts name (n + Option.value (Hashtbl.find_opt t.counts name) ~default:0)

let peak t name n =
  Hashtbl.replace t.counts name (max n (Option.value (Hashtbl.find_opt t.counts name) ~default:0))

let counts t = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counts [])
let count t name = Option.value (Hashtbl.find_opt t.counts name) ~default:0

(* Fold one world's (or one measurement's) counters into the pass. *)
let add_stats t (s : Stats.t) =
  List.iter
    (fun (name, v) -> bump t name v)
    [
      ("simnet.events", s.Stats.events_scheduled_total);
      ("simnet.pooled", s.Stats.events_pooled_reuses);
      ("ucx.messages", s.Stats.messages_sent);
      ("ucx.bytes_on_wire", s.Stats.bytes_on_wire);
      ("ucx.eager_messages", s.Stats.eager_messages);
      ("ucx.rndv_messages", s.Stats.rndv_messages);
      ("ucx.iov_entries", s.Stats.iov_entries);
      ("ucx.memcpys", s.Stats.memcpys);
      ("ucx.bytes_copied", s.Stats.bytes_copied);
      ("ucx.retransmits", s.Stats.retransmits);
      ("ucx.frags_dropped", s.Stats.frags_dropped);
      ("ucx.frags_corrupted", s.Stats.frags_corrupted);
      ("ucx.frags_duplicated", s.Stats.frags_duplicated);
      ("ucx.acks", s.Stats.acks);
      ("ucx.nacks", s.Stats.nacks);
      ("ucx.iov_fallbacks", s.Stats.iov_fallbacks);
      ("datatype.plan.cache_hits", s.Stats.plan_cache_hits);
      ("datatype.plan.cache_misses", s.Stats.plan_cache_misses);
      ("restart.checkpoint_bytes", s.Stats.checkpoint_bytes);
    ];
  peak t "simnet.max_live_events" s.Stats.max_live_events

(* The passes of one run repeat the same sections in the same order.
   A section's host time is its median over the passes, so a few
   seconds of interference on a noisy host slow one sample of each
   section they overlap instead of the whole estimate.  [pass_s] is
   the sum of those medians plus the median time no section covers. *)
type summary = {
  pass_s : float;
  counted_s : float;  (** host time of the counted sections *)
  events : int;  (** simulator events of the counted sections *)
  words : float;  (** words they allocated *)
  ns_per_event : string -> float;  (** host ns per event of one group *)
}

let summarize passes =
  let arrays = List.map (fun (_, t) -> Array.of_list (List.rev t.sections)) passes in
  let first = List.hd arrays in
  let n = Array.length first in
  if List.exists (fun a -> Array.length a <> n) arrays then failwith "passes ran different sections";
  let med i f = Measure.median (List.map (fun a -> f a.(i)) arrays) in
  let secs = Array.init n (fun i -> med i (fun s -> s.secs)) in
  let uncovered =
    Measure.median
      (List.map2
         (fun (wall, _) a -> wall -. Array.fold_left (fun acc s -> acc +. s.secs) 0. a)
         passes arrays)
  in
  let sum p f =
    let acc = ref 0. in
    Array.iteri (fun i s -> if p s then acc := !acc +. f i s) first;
    !acc
  in
  let counted s = s.group <> uncounted in
  {
    pass_s = sum (fun _ -> true) (fun i _ -> secs.(i)) +. uncovered;
    counted_s = sum counted (fun i _ -> secs.(i));
    events = int_of_float (sum counted (fun _ s -> float_of_int s.events));
    words = sum counted (fun i _ -> med i (fun s -> s.words));
    ns_per_event =
      (fun g ->
        let in_g s = s.group = g in
        sum in_g (fun i _ -> secs.(i)) *. 1e9 /. sum in_g (fun _ s -> float_of_int s.events));
  }
