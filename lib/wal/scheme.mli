(** Recovery schemes and their moveToFuture implementations (paper §4).

    The paper defines moveToFuture's mechanics per recovery-scheme family:

    - {b No_undo} (deferred update / no-steal): an active transaction's
      writes live in a private workspace and touch the database only at
      commit, so moveToFuture merely advances the transaction's version
      number — a virtual no-op.
    - {b Undo_redo} (BPR+96-style, in-memory undo records): writes are
      applied to the store in place; moveToFuture walks the transaction's
      records newest-first, copies each touched item from the old version to
      the new one, and applies undo images to scrub the old version.

    A [session] is the per-subtransaction durability context on one node.
    Sessions assume the caller (the update-transaction executor) already
    holds the proper locks; in particular moveToFuture may assume no touched
    item exists in the target version, because the transaction's exclusive
    locks kept everyone else away. *)

type kind = No_undo | Undo_redo

val kind_name : kind -> string

type 'v t

val create : kind -> store:'v Vstore.Store.t -> log:'v Log.t -> 'v t

val kind : _ t -> kind
val store : 'v t -> 'v Vstore.Store.t
val log : 'v t -> 'v Log.t

type 'v session

val begin_session : 'v t -> txn:int -> version:int -> 'v session
(** Also appends the [Begin] log record. *)

val txn : _ session -> int
val version : _ session -> int
(** The session's current version, [V(T_i)]. *)

val read_own : 'v t -> 'v session -> string -> 'v option option
(** [Some (Some v)] — the session wrote [v]; [Some None] — it deleted the
    item; [None] — the session has not written the item (read the store).
    Only [No_undo] sessions ever return [Some _]: under [Undo_redo] the
    store already reflects own writes. *)

val write : 'v t -> 'v session -> string -> 'v option -> unit
(** Record a write ([Some v]) or deletion ([None]) of the item in the
    session's current version, logging the redo record. *)

val move_to_future : 'v t -> 'v session -> new_version:int -> int
(** Bring the node to the state it would have had if the transaction had
    operated in [new_version] all along, and return how many items were
    copied forward: always 0 under [No_undo], whose moveToFuture is a
    virtual no-op.  Never blocks, acquires no locks.  No-op (returning 0)
    if [new_version <= version session]. *)

(** {1 Savepoints}

    A savepoint marks a point in the session's write history; rolling back
    to it erases every write made since while keeping earlier ones — the
    partial-abort primitive under the session layer's nested transactions.
    Savepoints compose with [move_to_future]: marks taken before an mtf
    remain valid after it. *)

type 'v savepoint

val savepoint : 'v t -> 'v session -> 'v savepoint
(** Mark the current write-set state.  Logs nothing: an untouched savepoint
    leaves the WAL byte-identical. *)

val rollback_to : 'v t -> 'v session -> 'v savepoint -> unit
(** Restore the write-set to the mark, logging a [Rollback] record so
    recovery replays the same truncation.  Under [No_undo] the deferred
    workspace is reset to the mark; under [Undo_redo] post-mark store
    mutations are reverted in place at the session's current version.
    Rolling back to the same savepoint twice is idempotent. *)

val commit : 'v t -> 'v session -> final_version:int -> unit
(** Make the session's writes durable in [final_version] and log the commit
    record carrying that version.  Callers must have already moved the
    session to [final_version] (the protocol layer does this). *)

val abort : 'v t -> 'v session -> unit
(** Erase every effect of the session and log the abort. *)
