(** Crash recovery by log replay.

    A simulated crash discards a node's volatile state: the transaction
    counters (the paper notes they restart at zero because in-flight
    transactions are aborted during recovery) and any uncommitted work.
    What survives is the log; {!replay} rebuilds the versioned store and the
    node's version numbers from it.

    Updates of a committed transaction are applied at the {e final} version
    carried by its commit record — exactly why the paper puts the final
    version number in that record. *)

type versions = {
  update_version : int;  (** last logged [Advance_update], or the initial 1 *)
  query_version : int;  (** last logged [Advance_query], or the initial 0 *)
  collected_version : int;  (** last logged [Collect], or -1 *)
}

val checkpoint :
  'v Log.t -> store:'v Vstore.Store.t -> u:int -> q:int -> g:int -> unit
(** Truncate the log and write a checkpoint record capturing the store and
    the node's version numbers.  Only valid at a quiescent point: no update
    transaction may be active (its earlier log records would be lost). *)

type 'v pending
(** The redo buffer: the logged writes of every transaction that has begun
    but neither committed nor aborted, in log order. *)

val pending : unit -> 'v pending
(** An empty buffer. *)

val redo : 'v pending -> 'v Vstore.Store.t -> 'v Record.t -> unit
(** The one place a transaction record changes data.  [Begin] and [Update]
    buffer a transaction's writes, [Rollback] drops all but the first
    [keep], [Abort] discards them, and [Commit] installs them in the store
    at the record's final version.  A [Checkpoint] empties the buffer (its
    store swap, like the version records, is the caller's part). *)

val replay :
  'v Log.t ->
  ?bound:int ->
  ?gc_renumber:bool ->
  ?pending:'v pending ->
  unit ->
  'v Vstore.Store.t * versions
(** Rebuild a store (with the given version bound, default unbounded) and
    recover the node's version numbers: {!redo} over every record, plus
    the version records and the last [Checkpoint]'s store.  The writes of
    transactions still in flight at the end of the log are left in
    [pending] (a fresh buffer by default), so a caller that keeps
    applying records after the log can pass one in. *)

val committed_transactions : _ Log.t -> int list
(** Transactions with a commit record, in commit order. *)

val in_flight_transactions : _ Log.t -> int list
(** Transactions with a begin record but neither commit nor abort — the
    ones a crash kills. *)
