(** One update subtransaction at one node — the shared machinery under both
    the flat executor ({!Update_exec}) and the R*-style tree executor
    ({!Tree_txn}).

    A subtransaction owns a durability session, occupies one update-counter
    slot, and carries the moveToFuture bookkeeping (§3.4): a later-version
    data item encountered under lock drags the subtransaction forward; the
    §8 eager hand-off moves its counter occupancy along.

    All operations must run inside a simulation process, executing at the
    subtransaction's node (callers route through the network).  A
    transaction's subtransactions share a {!state} cell: once any of them
    aborts, operations of the others fail fast with {!Txn_abort} instead of
    touching data under a dead transaction. *)

type abort_reason =
  [ `Deadlock | `Node_down of int | `Rpc_timeout of int | `Version_mismatch ]

exception Txn_abort of abort_reason

type state = Running | Aborting | Finished

type 'v t

val start :
  'v Cluster_state.t ->
  txn_id:int ->
  state:state ref ->
  node:'v Node_state.t ->
  carried:int ->
  'v t
(** Begin a subtransaction at the node (§3.4 step 1: version lookup and
    counter increment, atomically).  [carried] is the transaction's highest
    version at dispatch time; with {!Config.piggyback_version} it can raise
    the node's update version. *)

val node : 'v t -> 'v Node_state.t
val version : 'v t -> int
(** Current version [V(T_i)]. *)

val finished : 'v t -> bool

val committed : 'v t -> bool
(** The subtransaction's commit record is durable (and, under replication,
    not discarded by a failover).  Distinguishes a committed participant
    from an aborted one after the transaction failed mid-commit-round —
    the session layer's idempotence guard. *)

val committed_at : 'v t -> float
(** Local time the commit finalized (locks released, writes visible) —
    what serializability oracles order same-version conflicts by; [nan]
    until {!committed}.  Stamped at the participant because a coordinator
    whose ack was lost only learns of the commit later. *)

val commit_submitted : 'v t -> bool
(** The commit decision reached this participant: store changes and the
    Commit record are in, though the durability force may still be pending.
    [commit_submitted] without {!committed} is the in-limbo window a
    coordinator that timed out must wait out (or redrive) rather than
    rerun the transaction — the force completing commits it, the node
    crashing first loses it. *)

val read : 'v Cluster_state.t -> 'v t -> string -> 'v option
val write : 'v Cluster_state.t -> 'v t -> string -> 'v -> unit
val read_modify_write : 'v Cluster_state.t -> 'v t -> string -> ('v option -> 'v) -> unit
val delete : 'v Cluster_state.t -> 'v t -> string -> unit

type 'v savepoint
(** A mark in this subtransaction's write and lock history. *)

val savepoint : 'v Cluster_state.t -> 'v t -> 'v savepoint

val rollback_to : 'v Cluster_state.t -> 'v t -> 'v savepoint -> unit
(** Partial abort: erase every write made since the mark (logging a
    [Rollback] record) and release the locks first acquired since it, so
    the items become re-acquirable by other transactions.  Locks held
    before the mark — including any upgraded inside the scope — are kept:
    strict 2PL still covers everything the surviving write-set and
    pre-scope reads depend on.  Reads made inside the rolled-back scope are
    void (the session layer discards the scope's results with it).  With
    the {!Config.Savepoint_leak} mutant the lock release is skipped — the
    deliberately broken twin the explorer convicts. *)

val prepare : 'v Cluster_state.t -> 'v t -> int
(** Reach the prepared state: release shared locks, report [V(T_i)] (the
    version piggybacked on the [prepared] message). *)

val commit : 'v Cluster_state.t -> 'v t -> final_version:int -> unit
(** Process the [commit(V(T))] message: if behind, treat it as the signal
    that advancement began, move to the future, then commit, decrement the
    counter and release all locks.  Idempotent: a duplicate delivery (the
    session layer redrives the decision after a timeout) waits for
    durability without reapplying, and a stale delivery to a participant
    that already rolled back is refused silently. *)

val abort : 'v Cluster_state.t -> 'v t -> unit
(** Roll back and release; no-op if already finished (a participant that
    committed before the failure is past the point of no return). *)
