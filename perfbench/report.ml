(* Metric collection and output.  Every metric is printed by name with
   its unit in the human-readable report; the last line of standard
   output is the one-line JSON result.  A metric given several samples
   (one per pass) reports their median, with the quartiles and sample
   count alongside in the human-readable report. *)

(* Files the benchmark writes go under this directory of the checkout. *)
let out_path file =
  let dir = ".bench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir file

type metric = { name : string; unit_ : string; samples : float list; note : string }

let metrics : metric list ref = ref []

let add ?(note = "") name unit_ samples =
  if samples = [] then invalid_arg ("Report.add: no samples for " ^ name);
  metrics := { name; unit_; samples; note } :: !metrics

let one ?note name unit_ v = add ?note name unit_ [ v ]
let value m = Measure.median m.samples
let find name = List.find_opt (fun m -> m.name = name) !metrics

(* Correctness bookkeeping: every operation the workload attempts, and
   every oracle mismatch, which counts as a failed operation. *)
let attempted = ref 0
let failed = ref 0
let mismatches : string list ref = ref []

let attempt () = incr attempted

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failed;
        mismatches := msg :: !mismatches
      end)
    fmt

let print_table () =
  Printf.printf "\n%-44s %14s %-8s  %s\n" "metric" "median" "unit" "[q1 .. q3] (n)  note";
  List.iter
    (fun m ->
      let n = List.length m.samples in
      let spread =
        if n < 2 then "(1)"
        else
          Printf.sprintf "[%.6g .. %.6g] (%d)" (Measure.quantile 0.25 m.samples)
            (Measure.quantile 0.75 m.samples) n
      in
      Printf.printf "%-44s %14.6g %-8s  %s  %s\n" m.name (value m) m.unit_ spread m.note)
    (List.rev !metrics)

(* The JSON result line.  [names] lists the metrics the result carries,
   in order; each must have been added. *)
let json_line names =
  let field name =
    match find name with
    | Some m ->
        let v = value m in
        let v = if Float.is_finite v then v else 0. in
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v m.unit_
    | None -> failwith ("metric not measured: " ^ name)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!failed = 0) !attempted !failed
    (String.concat ", " (List.map field names))
