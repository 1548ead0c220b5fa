(* Host wall-clock helpers shared by every workload: a monotonic clock,
   order statistics, and the layer-row timer.  Nothing here touches the
   simulator's virtual clock. *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())
let now_s () = now_ns () /. 1e9

let time_s f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* Words allocated so far (minor + direct major - promoted), the
   allocation count that [alloc_words_per_event] divides. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* Quantile [q] by Python's default "exclusive" method, so the
   quartiles printed here are the ones
   statistics.quantiles(values, n=4) gives run.py's compare mode and the
   spread check over runs. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | [ x ] -> x
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let pos = q *. float_of_int (n + 1) in
      let j = max 1 (min (n - 1) (int_of_float (Float.floor pos))) in
      a.(j - 1) +. ((pos -. float_of_int j) *. (a.(j) -. a.(j - 1)))

let median xs = quantile 0.5 xs

(* One layer row: seconds per call of [f], as the median of [samples]
   batches, each batch repeating [f] for at least 20 ms (so a 1 µs call
   and a 10 ms call are both timed over a span the clock resolves). *)
let per_call_s ?(samples = 5) f =
  f ();
  let batch () =
    let t0 = now_s () in
    let n = ref 0 in
    while now_s () -. t0 < 0.02 do
      f ();
      incr n
    done;
    (now_s () -. t0) /. float_of_int !n
  in
  median (List.init samples (fun _ -> batch ()))

(* Throughput of [f] moving [bytes] per call, in GB/s (10^9 B/s). *)
let gb_per_s ~bytes f = float_of_int bytes /. per_call_s f /. 1e9
