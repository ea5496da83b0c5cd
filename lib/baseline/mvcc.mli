(** Baseline: unbounded multi-version concurrency control (CG85-flavoured).

    Update transactions use strict 2PL and stamp their writes with a commit
    timestamp from a global oracle (standing in for CG85's committed-
    transaction-list machinery).  Queries read the snapshot as of the oracle
    value at their start, lock-free, always seeing the latest committed
    data.

    The cost the paper targets: the number of versions is unbounded — a
    long-running query holds the garbage-collection horizon back and version
    chains grow with every update behind it.  {!max_versions_ever} and the
    chain statistics quantify it. *)

type t

val create : engine:Sim.Engine.t -> nodes:int -> unit -> t
(** Versions older than the oldest active snapshot are pruned whenever a
    snapshot retires and after every 20 commits. *)

val load : t -> node:int -> (string * int) list -> unit

include Workload.Db_intf.DB with type t := t
