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

val four_version : Ava3.Config.t
(** The four-version transient-versioning comparator (MPL92/WYC91-
    flavoured): AVA3's substrate with the two trade-offs the paper
    contrasts against, as labelled ["four-version-sync"] in E5 and E7b.

    - {b Centralized trade}: one extra ("fourth") version is retained so
      advancement's Phase 2 never waits for running queries — new queries
      always get the freshest published version immediately.  AVA3 pays a
      wait instead and needs only three versions.
    - {b Distributed flaw}: version advancement is synchronous with user
      transactions — there is no moveToFuture, so any transaction caught
      straddling an advancement (a subtransaction version mismatch at data
      access or commit) is {e aborted}.  The paper cites exactly this as why
      MPL92's distributed extension violates non-interference.

    It is [Config.default] with [abort_on_version_mismatch] and
    [retain_extra_version] set.  Experiment E7 measures both trade-offs:
    max resident versions (4 vs 3) and advancement-induced aborts
    (["mismatch_aborts"] in {!extra_stats}, positive vs zero). *)

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
