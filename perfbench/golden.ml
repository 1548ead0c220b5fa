(* Golden simulated outputs.  Virtual time and fixed-seed counters are
   the model's outputs: a change that only speeds up the host must
   leave every one of them bit-identical. *)

(* rank-scale: virtual time (ns) at the end of each allreduce world. *)
let rank_scale =
  [
    ("n256", 37270.143999999986);
    ("n1024", 46587.679999999978);
    ("n4096", 55905.215999999979);
    ("fattree1024", 71287.679999999978);
  ]

(* fault-sweep: reliability counters of each chaos cell at plan seed 1,
   in [Fault_sweep.cells] order. *)
let fault_cells =
  [
    (* eager-contig/drop *) "retx=1 drop=1 corrupt=0 dup=0 ack=20 nack=0 iovfb=0";
    (* eager-contig/corrupt *) "retx=2 drop=0 corrupt=2 dup=0 ack=20 nack=2 iovfb=0";
    (* eager-contig/dup *) "retx=0 drop=0 corrupt=0 dup=3 ack=20 nack=0 iovfb=0";
    (* rndv-contig/drop *) "retx=24 drop=24 corrupt=0 dup=0 ack=40 nack=0 iovfb=0";
    (* rndv-contig/corrupt *) "retx=12 drop=0 corrupt=12 dup=0 ack=40 nack=12 iovfb=0";
    (* rndv-contig/dup *) "retx=0 drop=0 corrupt=0 dup=37 ack=40 nack=0 iovfb=0";
    (* eager-generic/drop *) "retx=1 drop=1 corrupt=0 dup=0 ack=20 nack=0 iovfb=0";
    (* eager-generic/corrupt *) "retx=2 drop=0 corrupt=2 dup=0 ack=20 nack=2 iovfb=0";
    (* eager-generic/dup *) "retx=0 drop=0 corrupt=0 dup=3 ack=20 nack=0 iovfb=0";
    (* rndv-generic/drop *) "retx=7 drop=7 corrupt=0 dup=0 ack=40 nack=0 iovfb=0";
    (* rndv-generic/corrupt *) "retx=7 drop=0 corrupt=7 dup=0 ack=40 nack=7 iovfb=0";
    (* rndv-generic/dup *) "retx=0 drop=0 corrupt=0 dup=14 ack=40 nack=0 iovfb=0";
    (* iov-custom/drop *) "retx=8 drop=8 corrupt=0 dup=0 ack=40 nack=0 iovfb=0";
    (* iov-custom/corrupt *) "retx=0 drop=0 corrupt=4 dup=0 ack=44 nack=0 iovfb=4";
    (* iov-custom/dup *) "retx=0 drop=0 corrupt=0 dup=14 ack=40 nack=0 iovfb=0";
  ]

(* fault-sweep: reference-run fingerprint and exhaustive k=1 sweep of
   each explore workload. *)
let explore =
  [
    ("revoke-rescue", "ref=d267fe30 points=52 runs=52 classes=9 pruned=43 cex=0");
    ("allreduce", "ref=5a6f9f9c points=48 runs=48 classes=11 pruned=37 cex=0");
  ]
