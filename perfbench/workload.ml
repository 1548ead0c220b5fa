(* The shape every workload has.  [setup] is untimed preparation (timed
   only as [setup_s]); [pass] is one pass of the timed phase and checks
   the pass's outputs as it goes; [verify] holds the golden checks that
   run once, untimed, after the timed phase; [layers] measures the
   per-layer rows in the traced run, given the first pass's tally and
   the number of traced passes whose spans were recorded. *)

module type S = sig
  val name : string

  type state

  val setup : seed:int -> state

  val setup_reps : int
  (** set-ups per run; [setup_s] is their median *)

  val pass : state -> Tally.t -> unit

  val max_group : string
  (** the section group of the workload's largest world *)

  val min_group : string
  (** ... and of its smallest *)

  val verify : state -> Tally.t -> unit
  val layers : state -> Tally.t -> traced_passes:int -> unit
end
