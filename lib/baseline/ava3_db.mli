(** {!Workload.Db_intf.DB} adapter for the AVA3 cluster, so the protocol
    under study runs the exact same generated workloads as the baselines.

    Version advancement is driven by a periodic process (configured at
    creation); query staleness comes from the cluster's freeze-time
    bookkeeping.

    [submit_update] restarts aborts under the harness rule of every
    baseline ({!Common.retry}, 10 attempts 5.0 apart), so run the adapter
    fault-free: under faults a rerun can re-apply a commit that already
    landed, and faulted workloads belong on [Session.txn]. *)

type t

val default_extract : int -> string
(** Standard secondary attribute for int-valued stores — the value modulo
    1000, zero-padded ("a042") so lexicographic order matches numeric
    order.  The adapter maps the driver's normalized range endpoints onto
    this encoding, so pass it as [?index] to enable scans and joins. *)

val create :
  engine:Sim.Engine.t ->
  ?config:Ava3.Config.t ->
  ?latency:Net.Latency.t ->
  ?advancement_period:float ->
  ?advancement_until:float ->
  ?use_tree:bool ->
  ?index:(int -> string) ->
  ?scan_plan:Ava3.Query_exec.select_plan ->
  nodes:int ->
  unit ->
  t
(** [advancement_period] (default 100.0) drives periodic advancement from
    node 0 until [advancement_until] (default 10_000.0).  Pass
    [advancement_period = 0.] for manual advancement only.

    [use_tree] (default false) executes update transactions through the
    R*-style tree executor ({!Ava3.Tree_txn}) — the root's operations as its
    own work and one concurrent child subtransaction per remote node —
    instead of the flat executor.

    [index] attaches a secondary index on the extracted attribute at every
    site (see {!Ava3.Cluster.create}) and enables [submit_scan] /
    [submit_join]; without it both return [None].  Range endpoints map
    onto the {!default_extract} encoding, so [index] must agree with its
    order.  [scan_plan] (default [`Index]) picks the execution plan for
    scans and joins — [`Full_scan] for the unindexed reference plan,
    [`Both_check] to run both and raise on any divergence. *)

val cluster : t -> int Ava3.Cluster.t
val load : t -> node:int -> (string * int) list -> unit

include Workload.Db_intf.DB with type t := t
