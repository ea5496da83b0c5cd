(** Shared lifecycle of a distributed update transaction — the runtime
    under the flat executor ({!Update_exec}), the R*-style tree executor
    ({!Tree_txn}) and the interactive transactions of [Session].

    A [Txn_core.t] owns what the drivers would otherwise duplicate: the
    subtransaction registry keyed by site, the carried-version
    computation for §10 piggybacking, the orphaned-dispatch guard, the
    prepared-version maximum with mismatch accounting, the commit
    bookkeeping, and [abort_all].  Every driver addresses partitions,
    which resolve to their current primary sites, and reaches a site
    through [Net.Network.run_at].  The drivers differ only in the order
    they visit sites: the flat executor and [Session] ship each
    operation from the root ({!at_node}), the tree executor fans
    subtransactions out along plan edges ({!register}); all end by
    running the shared decision logic. *)

type abort_reason = Subtxn.abort_reason

type 'v t

(** Outcome of one update transaction, shared by both executors
    ([Update_exec] and [Tree_txn] re-export it with their own
    [commit_info]).  [Root_down] is the documented sentinel for a
    transaction rejected before it began because its root node was
    down: no transaction id was allocated, nothing ran anywhere, and it
    is counted as a rejection rather than an abort. *)
type 'info outcome =
  | Committed of 'info
  | Aborted of { txn_id : int; reason : abort_reason }
  | Root_down of { root : int }

val create : 'v Cluster_state.t -> root:int -> 'v t option
(** Begin a transaction rooted at [root]: allocate its id, stamp its
    start time, create the shared state cell.  [None] if the root node
    is down (recorded as a root-down rejection in the metrics); callers
    map that to [Root_down]. *)

val txn_id : _ t -> int
val root : _ t -> int
val started_at : _ t -> float

val running : _ t -> bool
(** Whether the shared state cell is still [Running].  A lock denial
    ([Txn_abort `Deadlock] from {!Subtxn}) leaves it [Running] — the
    requester was refused but nothing was rolled back yet, so a savepoint
    rollback can still break the cycle; once {!abort_all} has run it is
    not. The session layer's nested-scope handler keys on this. *)

val carried : 'v t -> int
(** Highest version any registered subtransaction currently runs in —
    the version piggybacked on new dispatch (§10). *)

val register : 'v t -> int -> carried:int -> 'v Subtxn.t
(** Start a subtransaction at node [n] carrying [carried], and enter it
    in the registry.  Runs the orphaned-dispatch guard: if the
    transaction aborted while this dispatch was in flight, the fresh
    subtransaction is rolled back on the spot (its counter must not
    leak) and [Subtxn.Txn_abort] is raised.  Must execute at node [n]
    (callers route through the network). *)

val sub : 'v t -> int -> 'v Subtxn.t
(** The subtransaction at node [n], registering it with the current
    {!carried} version on first use (the flat executor's lazy
    dispatch). *)

val find_sub : 'v t -> int -> 'v Subtxn.t option

val sub_list : 'v t -> 'v Subtxn.t list
(** All registered subtransactions in node-id order. *)

val sub_versions : 'v t -> int list
(** Current [V(T_i)] of every registered subtransaction. *)

val at_node : 'v t -> int -> ('v Subtxn.t -> 'a) -> 'a
(** Run [f] on the node's subtransaction (registering it on first use),
    at the node: directly when it is the root, through an RPC
    otherwise. *)

val at_sub : 'v t -> 'v Subtxn.t -> ('v Subtxn.t -> 'a) -> 'a
(** Run [f] on a registered subtransaction at its own site.  Unlike
    {!at_node}, which resolves a partition id to its {e current} primary,
    this never re-registers: after a failover it reaches the
    subtransaction's original site (and fails if that site is down). *)

val at_sub_nodes : 'v t -> ('v Subtxn.t -> 'a) -> 'a list
(** Run [f] on every registered subtransaction at its node, in node-id
    order — the prepare and commit rounds of the flat executor. *)

type 'v savepoint
(** A transaction-wide mark: one {!Subtxn.savepoint} per subtransaction
    registered when it was taken. *)

val savepoint : 'v t -> 'v savepoint
(** Mark every registered subtransaction (routing to each node).  Cheap:
    logs nothing; an untaken rollback leaves behavior bit-identical. *)

val rollback_to : 'v t -> 'v savepoint -> unit
(** Partial abort back to the mark: subtransactions that existed then roll
    back to their marks; ones dispatched since are aborted outright and
    removed from the registry.  The generalization of {!abort_all}'s
    all-or-nothing fan-out (PROTOCOL.md "Savepoints").  An RPC failure
    while rolling back raises and so aborts the whole transaction. *)

val release_savepoint : 'v t -> 'v savepoint -> unit
(** Merge the scope into its parent — keeps all writes and locks (no-op;
    exists so the session layer's scope discipline reads explicitly). *)

val decide_version : 'v t -> int list -> int
(** The transaction's global version [V(T)]: the maximum of the
    prepared versions.  A disagreement among them is counted as a
    version mismatch (the situation the modified 2PC exists for) and,
    in the synchronous-advancement baseline
    ({!Config.abort_on_version_mismatch}), raises [Subtxn.Txn_abort
    `Version_mismatch]. *)

val finish_commit : 'v t -> final_version:int -> unit
(** Mark the transaction finished, count the commit against the root
    node and trace it ({!Cluster_state.note}). *)

val abort_all : 'v t -> abort_reason -> 'info outcome
(** Roll back every registered subtransaction (node-id order), count the
    abort with its reason against the root node and trace it;
    returns the [Aborted] outcome. *)

val protect : 'v t -> (unit -> 'info outcome) -> 'info outcome
(** Run the driver's body, converting the three transaction-fatal
    exceptions ([Subtxn.Txn_abort], [Net.Network.Node_down],
    [Net.Network.Rpc_timeout]) into {!abort_all}. *)
