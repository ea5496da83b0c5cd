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
    and remember [extract], so subsequent store swaps ({!replace_store})
    re-attach automatically.  Called by [Cluster] when the cluster is
    created with [~index]. *)

val index : 'v t -> 'v Vindex.Index.t option
(** The node's secondary index, when one is attached. *)

val locks : _ t -> Lockmgr.Lock_table.t
val scheme : 'v t -> 'v Wal.Scheme.t
val log : 'v t -> 'v Wal.Log.t
val engine : _ t -> Sim.Engine.t

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

val set_u : _ t -> int -> unit
(** Raise the update version number (logged; initialises the new version's
    update counter).  Ignores regressions. *)

val set_q : _ t -> int -> unit
(** Raise the query version number (logged; initialises the new version's
    query counter).  Ignores regressions. *)

val collect_garbage : _ t -> newg:int -> unit
(** Set [g], run the Phase-3 store GC for version [newg] (renumber target
    [newg + 1]), log it, and drop the query counter for [newg] and the
    update counter for [newg + 1]. *)

(** {1 Replica apply}

    A backup site advances its state only by applying records shipped from
    its partition's primary ({!Replication}).  These mirror {!set_u} /
    {!set_q} / {!collect_garbage} {e without} the log append — the record
    is already in the backup's log, appended verbatim on receipt — and
    with identical counter-slot bookkeeping, so a promoted backup is
    indistinguishable from a crash-recovered primary. *)

val apply_advance_u : _ t -> int -> unit
val apply_advance_q : _ t -> int -> unit

val apply_collect : _ t -> collect:int -> query:int -> unit
(** Apply a shipped [Collect] record: run the store GC and drop the dead
    counter slots, exactly as {!collect_garbage} does. *)

val replace_store : 'v t -> 'v Vstore.Store.t -> u:int -> q:int -> g:int -> unit
(** Apply a shipped [Checkpoint] record: swap in the restored store, reset
    the version numbers to the checkpoint's, and re-seed the counter slots
    a fresh node would have.  Stale counter slots are kept so reads still
    in flight on the old epoch decrement in balance. *)

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

val counter_latch : _ t -> Lockmgr.Latch.t
(** The latch protecting counters and version numbers — its acquisition
    count is the protocol's total latching work on this node. *)

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
  store:'v Vstore.Store.t ->
  u:int ->
  q:int ->
  g:int ->
  unit ->
  'v t
(** Rebuild a node after a crash from its replayed log: the recovered store
    and version numbers survive, the counters restart at zero (the paper's
    rule — all in-flight transactions died with the crash). *)

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
