(* Benchmark-side spans.  Every span wraps one call from the benchmark
   into a layer of the system; the system itself is not instrumented.
   Spans live in memory and are written out when the run ends.

   Parentage follows the main fiber's call stack.  A span opened inside
   a simulated rank's fiber ([~fiber:true]) takes the main-stack span
   as its parent but is never pushed: other fibers run while it is
   open, so it is marked wait-inclusive and its interval overlaps its
   siblings'.  Self time is a span's duration minus the union of its
   children's intervals, so overlapping wait-inclusive children are not
   subtracted twice. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a pass root *)
  pass : int;  (** every span of one workload pass shares this id *)
  wait : bool;  (** wait-inclusive: other fibers ran inside it *)
  t0 : float;  (** host ns *)
  mutable t1 : float;
}

let enabled = ref false
let spans : span list ref = ref []
let stack : span list ref = ref []
let next_id = ref 0
let pass_id = ref (-1)

let open_span ~wait name =
  let parent = match !stack with p :: _ -> p.id | [] -> -1 in
  let s =
    { id = !next_id; name; parent; pass = !pass_id; wait; t0 = Measure.now_ns (); t1 = nan }
  in
  incr next_id;
  spans := s :: !spans;
  s

(* [with_ name f] runs [f] inside span [name] when tracing is on, and
   costs one branch when it is off. *)
let with_ ?(fiber = false) name f =
  if not !enabled then f ()
  else begin
    let s = open_span ~wait:fiber name in
    if not fiber then stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Measure.now_ns ();
        if not fiber then stack := List.tl !stack)
      f
  end

(* Workload pass [id]: the root span every other span of the pass
   descends from. *)
let pass ~id name f =
  pass_id := id;
  with_ name f

let all () = List.rev !spans

let children_of spans =
  let tbl = Hashtbl.create 256 in
  List.iter (fun s -> if s.parent >= 0 then Hashtbl.add tbl s.parent s) spans;
  fun s -> Hashtbl.find_all tbl s.id

let union_ns intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) ->
            if a > cb then (acc +. (cb -. ca), Some (a, b))
            else (acc, Some (ca, Float.max cb b)))
      (0., None) sorted
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let self_ns children s =
  (s.t1 -. s.t0) -. union_ns (List.map (fun c -> (c.t0, c.t1)) (children s))

(* Per-name aggregate over all spans: (name, count, total ns, self ns,
   wait-inclusive), sorted by self time. *)
let by_name () =
  let spans = all () in
  let children = children_of spans in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let n, tot, self, wait =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0., 0., s.wait)
      in
      Hashtbl.replace tbl s.name
        (n + 1, tot +. (s.t1 -. s.t0), self +. self_ns children s, wait))
    spans;
  Hashtbl.fold (fun name (n, tot, self, wait) acc -> (name, n, tot, self, wait) :: acc) tbl []
  |> List.sort (fun (_, _, _, a, _) (_, _, _, b, _) -> compare b a)

(* Sum of named spans' durations (ns) within traced passes, and their
   count. *)
let total_ns name =
  List.fold_left
    (fun (n, acc) s -> if s.name = name then (n + 1, acc +. (s.t1 -. s.t0)) else (n, acc))
    (0, 0.) (all ())

(* The top level of a pass, and the tiling of the whole pass tree.
   [tops] is the sum of the root's children's durations and [root_self]
   the root's self time: host time no layer span covers.  [tiled] adds
   up, over every main-stack span of the pass, its self time plus the
   union of its wait-inclusive children (whose own self times overlap
   and so cannot simply be summed).  Spans nest properly exactly when
   [tiled] equals the root's duration: a child that outlives its
   parent, or main-stack siblings that overlap (say, a rank-body span
   opened without [~fiber:true]), break the equality. *)
type tiling = { root_ns : float; tops_ns : float; root_self_ns : float; tiled_ns : float }

let tiling pass =
  let spans = List.filter (fun s -> s.pass = pass) (all ()) in
  let children = children_of spans in
  match List.find_opt (fun s -> s.parent < 0) spans with
  | None -> None
  | Some root ->
      let tops_ns = List.fold_left (fun acc c -> acc +. (c.t1 -. c.t0)) 0. (children root) in
      let tiled_ns =
        List.fold_left
          (fun acc s ->
            if s.wait then acc
            else
              let waits = List.filter (fun c -> c.wait) (children s) in
              acc +. self_ns children s +. union_ns (List.map (fun c -> (c.t0, c.t1)) waits))
          0. spans
      in
      Some { root_ns = root.t1 -. root.t0; tops_ns; root_self_ns = self_ns children root; tiled_ns }

let to_json path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let spans = all () in
      let children = children_of spans in
      output_string oc "[\n";
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "%s  {\"id\": %d, \"name\": %S, \"parent\": %d, \"pass\": %d, \"wait_inclusive\": %b, \"start_ns\": %.0f, \"end_ns\": %.0f, \"self_ns\": %.0f}"
            (if i = 0 then "" else ",\n")
            s.id s.name s.parent s.pass s.wait s.t0 s.t1 (self_ns children s))
        spans;
      output_string oc "\n]\n")
