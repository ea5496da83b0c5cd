(** One typed event per protocol step.

    Protocol code describes what happened as a value of {!t}; the
    metrics registry folds events into counters ({!Metrics.record}) and
    the trace stores them ({!Trace.emit}), rendering their text only when
    someone prints it ({!pp}).  Each constructor carries the transaction
    or query id it concerns (where one exists) and the site it happened
    at.  Sites are node indices; [part] is a replicated partition. *)

type abort_reason =
  [ `Deadlock | `Node_down of int | `Rpc_timeout of int | `Version_mismatch ]

type query_kind = [ `Read | `Scan | `Select | `Join ]

type t =
  | Spawn of { name : string }  (** a named simulation process started *)
  | Nemesis_crash of { site : int }
  | Nemesis_recover of { site : int }
  | Nemesis_partition of { a : int; b : int }
  | Nemesis_heal of { a : int; b : int }
  | Nemesis_slow of { src : int; dst : int; extra : float }
  | Nemesis_restore of { src : int; dst : int }
  | Root_down of { root : int }
      (** an update rejected before it began: its root was down *)
  | Sub_start of { txn : int; site : int; version : int }
  | Mtf of {
      txn : int;
      site : int;
      version : int;
      at_commit : bool;
      copied : int;
    }
      (** moveToFuture to [version], at data access or at commit time;
          [copied] items were copied forward (0 under [No_undo]) *)
  | Sub_rollback of { txn : int; site : int }
      (** one subtransaction rolled back to a savepoint *)
  | Savepoint_rollback of { txn : int; root : int }
      (** the whole transaction rolled back to a savepoint *)
  | Version_mismatch of { txn : int; root : int }
      (** subtransactions reached the commit decision in different
          versions *)
  | Commit of { txn : int; root : int; version : int }
  | Abort of { txn : int; root : int; reason : abort_reason }
  | Session_retry of { root : int; backoff : float }
      (** a failed transaction retried after sleeping [backoff] *)
  | Query_start of { query : int; site : int; version : int; kind : query_kind }
  | Query_done of { query : int; root : int; kind : query_kind }
  | Adv_start of { site : int; newu : int }
      (** [site] initiates an advancement round to update version [newu] *)
  | Set_u of { site : int; u : int }
  | Set_q of { site : int; q : int }
  | Phase1_done of { site : int; newq : int; duration : float }
  | Phase2_done of { site : int; newg : int; duration : float }
      (** the round coordinated by [site] completed its second phase; it
          counts as one finished advancement *)
  | Collected of { site : int; g : int }
  | Adv_abandon of { site : int; round : int; ahead : int }
  | Crashed of { site : int }
  | Recovered of { site : int; u : int; q : int; g : int }
  | Checkpoint of { site : int; log_records : int }
  | Backup_in_sync of { part : int; site : int }
  | Backup_demoted of { part : int; site : int; why : string }
  | Promoted of { part : int; site : int; was : int; u : int; q : int; g : int }
  | No_backup of { part : int; site : int }
  | Rejoined of { part : int; site : int }
  | Backup_read of { part : int; site : int }
      (** a read of partition [part] routed to its backup [site] *)
  | Rpc_call of { src : int; dst : int }
  | Rpc_reply of { src : int; dst : int; rtt : float }
      (** a reply (value or the callee's exception) settled the call *)
  | Rpc_timeout of { src : int; dst : int }
  | Envelope of { src : int }  (** one transport envelope on the wire *)
  | Disk_force of { site : int; records : int }
      (** one completed WAL force covering [records] log records *)

val tag : t -> string
(** The event's class, e.g. ["txn"], ["query"], ["advance"], ["crash"]. *)

val site : t -> int option
(** The site the event's text names first; [None] for {!Spawn} and for
    {!Query_done}, whose text names no site. *)

val pp_reason : Format.formatter -> abort_reason -> unit
(** e.g. ["deadlock"], ["rpc to node 2 timed out"]. *)

val pp :
  ?name:([ `Txn of int | `Query of int ] -> string option) ->
  Format.formatter ->
  t ->
  unit
(** One line of text, e.g. ["T2048: committed in version 2 (root node0)"].
    [name] renames transactions and queries (default ["T<id>"] and
    ["Q<id>"]); returning [None] keeps the default. *)
