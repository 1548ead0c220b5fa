module Buf = Mpicd_buf.Buf
module Datatype = Mpicd_datatype.Datatype
module Plan = Mpicd_datatype.Plan
module Custom = Mpicd.Custom

module type SPEC = sig
  val name : string
  val datatypes_desc : string
  val loop_desc : string
  val regions_sensible : bool
  val slab_bytes : int
  val manual_pack : Buf.t -> dst:Buf.t -> unit
  val manual_unpack : src:Buf.t -> Buf.t -> unit
  val derived : Datatype.t
end

module type KERNEL = sig
  include SPEC

  val wire_bytes : int
  val plan : Plan.t
  val create : unit -> Buf.t
  val create_sink : unit -> Buf.t
  val equal : Buf.t -> Buf.t -> bool
  val custom_pack : Buf.t Custom.t
  val custom_regions : Buf.t Custom.t option
end

let fill b = Buf.fill_periodic b ~period:256 (fun i -> (i * 131) + 17)

module Make (S : SPEC) : KERNEL = struct
  include S

  (* Compiled once per kernel (via the global memo cache) and shared by
     every operation; each operation gets its own cursor. *)
  let plan = Plan.get S.derived
  let wire_bytes = Plan.size plan

  let create () =
    let b = Buf.create S.slab_bytes in
    fill b;
    b

  let create_sink () = Buf.create S.slab_bytes

  let equal a b =
    List.for_all2 Buf.equal
      (Plan.iovec plan ~count:1 ~base:a)
      (Plan.iovec plan ~count:1 ~base:b)

  (* Custom datatype, packing everything through resumable callbacks.
     The per-operation state is a plan cursor, so a transport that walks
     the stream fragment by fragment resumes each callback in O(1)
     instead of re-deriving the position. *)
  let custom_pack : Buf.t Custom.t =
    Custom.create
      ~pack_pieces:(fun _ ~count:_ -> Plan.block_count plan)
      {
        state = (fun _ ~count:_ -> Plan.cursor plan);
        state_free = ignore;
        query = (fun _ _ ~count -> count * wire_bytes);
        pack =
          (fun cur base ~count ~offset ~dst ->
            Plan.pack_range ~cursor:cur plan ~count ~src:base
              ~packed_off:offset ~dst);
        unpack =
          (fun cur base ~count ~offset ~src ->
            ignore
              (Plan.unpack_range ~cursor:cur plan ~count ~src
                 ~packed_off:offset ~dst:base));
        region_count = None;
        regions = None;
      }

  (* Custom datatype exposing every block as a zero-copy region.  Plan
     blocks are already merged, so one element's iovec has exactly
     [block_count] entries. *)
  let custom_regions : Buf.t Custom.t option =
    if not S.regions_sensible then None
    else
      Some
        (Custom.create
           {
             state = (fun _ ~count:_ -> ());
             state_free = ignore;
             query = (fun () _ ~count:_ -> 0);
             pack = (fun () _ ~count:_ ~offset:_ ~dst:_ -> 0);
             unpack = (fun () _ ~count:_ ~offset:_ ~src:_ -> ());
             region_count = Some (fun () _ ~count:_ -> Plan.block_count plan);
             regions =
               Some
                 (fun () base ~count:_ ->
                   Array.of_list (Plan.iovec plan ~count:1 ~base));
           })
end

type kernel = (module KERNEL)
