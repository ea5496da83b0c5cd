(** Baseline: two-version before-value scheme (BHR80-flavoured).

    Writers keep the before-value of every item they modify, so queries read
    committed data without locks.  The cost, as the paper notes about
    [BHR80]: a read-only query can {e delay the commitment} of an update
    transaction — a writer may not commit an item while queries that read
    its before-value are still running.  Queries pin the items they read
    until they finish; writer commit waits for the pins to drain. *)

type t

val create : engine:Sim.Engine.t -> nodes:int -> unit -> t

val load : t -> node:int -> (string * int) list -> unit

include Workload.Db_intf.DB with type t := t
