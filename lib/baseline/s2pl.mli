(** Baseline: single-version strict two-phase locking.

    The no-versioning strawman: queries are ordinary transactions that take
    shared locks, so they block behind updates and updates block behind
    them.  This is the interference AVA3 exists to remove; experiment E5
    measures it as query latency inflation and update lock-wait time. *)

type t

val create : engine:Sim.Engine.t -> nodes:int -> unit -> t

val load : t -> node:int -> (string * int) list -> unit

include Workload.Db_intf.DB with type t := t
