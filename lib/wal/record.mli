(** Log record types for a node's write-ahead log.

    Only redo information is logged (paper §4: undo records of uncommitted
    transactions stay in main memory, as in BPR+96).  The commit record
    carries the transaction's final version number so that, during recovery,
    its updates are applied to the proper version. *)

type 'v t =
  | Begin of { txn : int; version : int }
      (** Subtransaction [txn] started with starting version [version]. *)
  | Update of { txn : int; key : string; value : 'v option }
      (** Redo record; [None] encodes a deletion. *)
  | Commit of { txn : int; final_version : int }
  | Rollback of { txn : int; keep : int }
      (** Savepoint rollback: discard all but the first [keep] of [txn]'s
          update records.  Redo-only counterpart of the session layer's
          partial abort — replay truncates the pending write list the same
          way the live path discards the in-memory workspace suffix. *)
  | Abort of { txn : int }
  | Advance_update of int  (** Node set its update version number. *)
  | Advance_query of int  (** Node set its query version number. *)
  | Collect of { collect : int; query : int }
      (** Node garbage-collected version [collect] with query version
          [query] (needed to replay the renumbering rule). *)
  | Checkpoint of {
      items : (string * (int * 'v option) list) list;
          (** full store contents; [None] encodes a tombstone *)
      u : int;
      q : int;
      g : int;
    }
      (** Quiescent checkpoint: recovery restarts from here instead of
          replaying history from the beginning.  Taken only when no update
          transaction is active at the node (the paper's remark about
          coordinating checkpoints, after BPR+96). *)

val pp : (Format.formatter -> 'v -> unit) -> Format.formatter -> 'v t -> unit
