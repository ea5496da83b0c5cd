(** Per-node control state of the AVA3 protocol (paper §3.1).

    Each site keeps three version numbers — [u] (update), [q] (query), [g]
    (garbage) — plus two main-memory transaction counters per active
    version.  Counter updates go through latches only (counted, never
    blocking); the conditions let the advancement protocol await the
    "counter reached zero" stable property without polling.

    The node also owns the substrates: the (three-version-bounded) store,
    the lock table, the WAL, and the recovery scheme. *)

type 'v t

val create :
  engine:Sim.Engine.t ->
  node_id:int ->
  config:Config.t ->
  ?lock_group:Lockmgr.Lock_table.group ->
  ?metrics:Sim.Metrics.t ->
  unit ->
  'v t
(** A fresh node in the paper's start-up state: all data at version 0,
    [q = 0], [u = 1], [g = -1], all counters zero.  The node takes from
    [config] its recovery scheme, its store's live-version cap
    ({!Config.store_bound}) and GC rule, its counter layout
    ([shared_transaction_counters]), and its {!Wal.Disk} and
    {!Wal.Group_commit} knobs; with a free disk and no window,
    {!commit_durable} is free and a crash loses no log records.  The
    {!Config.Gc_ack_early} mutant builds the group commit that
    acknowledges before the force.  Completed forces are recorded into
    [metrics] when given. *)

val id : _ t -> int
val store : 'v t -> 'v Vstore.Store.t

val attach_index : 'v t -> extract:('v -> string) -> unit
(** Build (or rebuild) the node's secondary index over its current store
    and remember [extract], so subsequent store swaps (a [Checkpoint]
    record through {!apply}) re-attach automatically.  Called by
    [Cluster] when the cluster is created with [~index]. *)

val index : 'v t -> 'v Vindex.Index.t option
(** The node's secondary index, when one is attached. *)

val locks : _ t -> Lockmgr.Lock_table.t
val scheme : 'v t -> 'v Wal.Scheme.t
val log : 'v t -> 'v Wal.Log.t

val commit_durable : _ t -> unit
(** Block (inside a process) until every record currently in this node's
    log is on the simulated disk — the group-commit acknowledgement a
    committing subtransaction waits for before releasing its locks.
    Raises {!Wal.Group_commit.Crashed} if the node dies first.  Free and
    synchronous when the durability model is off. *)

(** {1 Version numbers} *)

val u : _ t -> int
val q : _ t -> int
val g : _ t -> int

val apply : 'v t -> 'v Wal.Record.t -> bool
(** Apply one log record to the node, without logging it.  The
    transaction records go through {!Wal.Recovery.redo} on the node's own
    redo buffer, so a [Commit] installs its transaction's writes at the
    final version.  [Advance_update v] and [Advance_query v] raise [u] or
    [q] to [v] and open that version's update or query counter.
    [Collect] sets [g], runs the Phase-3 store GC, and then drops the
    query counter of the collected version and the update counter of the
    version queries now read.  [Checkpoint] swaps in its restored store
    (re-attaching the index), resets [u]/[q]/[g] to its numbers and opens
    the counters a freshly recovered node has; older counter slots stay
    so reads still in flight decrement in balance.  Version records that
    would lower a number are ignored.  Returns [true] if a version number
    moved or the store was swapped.

    A backup advances its state only by applying the records its
    partition's primary shipped ({!Replication}); the record is already
    in its log, appended verbatim on receipt. *)

val set_u : _ t -> int -> unit
(** [apply] an [Advance_update] and log it if [u] moved. *)

val set_q : _ t -> int -> unit
(** [apply] an [Advance_query] and log it if [q] moved. *)

val collect_garbage : _ t -> newg:int -> unit
(** [apply] a [Collect] of version [newg] (renumber target [newg + 1])
    and log it if [g] moved. *)

(** {1 Transaction counters} *)

val update_count : _ t -> version:int -> int
val query_count : _ t -> version:int -> int

val incr_update_count : _ t -> version:int -> unit
val decr_update_count : _ t -> version:int -> unit
val incr_query_count : _ t -> version:int -> unit
val decr_query_count : _ t -> version:int -> unit

val await_no_updates : _ t -> version:int -> unit
(** Block until [update_count ~version = 0]; returns immediately if the
    version has no counter (already collected). *)

val await_no_queries : _ t -> version:int -> unit

val counter_ops : _ t -> int
(** Counter increments and decrements on this node object: the paper's
    latched counter updates, so the protocol's total latching work here.
    A node rebuilt by recovery starts again from zero. *)

(** {1 Crash support} *)

val alive : _ t -> bool
(** [false] once {!kill} has run: the node has crashed and this object is an
    orphan kept only so that in-flight transactions fail cleanly. *)

val kill : _ t -> unit
(** Crash the node: mark it dead, fail every committer parked in group
    commit, and — when the durability model is active — discard the log's
    volatile tail, exactly as a power cut would. *)

val create_recovered :
  engine:Sim.Engine.t ->
  node_id:int ->
  config:Config.t ->
  ?lock_group:Lockmgr.Lock_table.group ->
  ?metrics:Sim.Metrics.t ->
  log:'v Wal.Log.t ->
  pending:'v Wal.Recovery.pending ->
  store:'v Vstore.Store.t ->
  u:int ->
  q:int ->
  g:int ->
  unit ->
  'v t
(** Rebuild a node after a crash from its replayed log: the recovered store
    and version numbers survive, the counters restart at zero (the paper's
    rule — all in-flight transactions died with the crash).  [pending] is
    the redo buffer replay left: a backup that keeps applying its
    primary's records completes the transactions in it. *)

val active_update_transactions : _ t -> int
(** Update subtransactions currently counted at this node (any version). *)

val try_checkpoint : _ t -> bool
(** Take a quiescent checkpoint: truncate the log to a single checkpoint
    record capturing the store and version numbers.  Returns [false]
    (doing nothing) if any update transaction is active — its log records
    must not be lost. *)

val fresh_txn_id : _ t -> int
(** Node-local transaction id allocator (ids are globally unique across a
    cluster because they embed the node id). *)
