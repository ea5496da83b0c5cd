(** Serializability checking by history replay.

    Theorem 6.2 says an AVA3 schedule is equivalent to a serial schedule in
    which transactions are ordered by commit version, update transactions of
    a version precede its queries, and conflicting same-version update
    transactions follow their two-phase-locking order.  This module makes
    that theorem executable:

    - {!recording_run} drives a randomized read-modify-write workload with
      interleaved advancements and records, for every {e committed}
      transaction, the values each read observed and each write produced,
      and for every query the snapshot it returned;
    - {!verify} reconstructs the claimed serial order — commit version,
      then commit completion time (which respects the 2PL order of
      conflicting transactions) — replays it on a plain map, and checks
      that every update-transaction read matches the replayed state, every
      query matches the replayed prefix of its snapshot version, and the
      final replayed state equals the store's visible contents.

    Any interleaving bug (lost update, torn snapshot, moveToFuture applied
    to the wrong version) surfaces as a concrete mismatch. *)

type key = int * string
(** (node, item) — items live on exactly one node. *)

type op_record =
  | Rmw of key * int option * int  (** observed value, written value *)
  | Put of key * int  (** blind write *)
  | Del of key

type txn_record = {
  t_version : int;  (** global version the transaction committed in *)
  t_finished : float;
  t_commit_at : (int * float) list;  (** per-node local commit times *)
  t_ops : op_record list;
}

type query_record = { q_version : int; q_reads : (key * int option) list }

type history = {
  committed : txn_record list;
  queries : query_record list;
  initial : (key * int) list;
  final_visible : (key * int option) list;
}
(** The types are concrete so harnesses other than {!recording_run} — in
    particular the schedule explorer in [lib/check], which records a
    history for {e every} enumerated interleaving — can assemble histories
    and put them through {!verify}. *)

type verdict = {
  transactions_checked : int;
  queries_checked : int;
  errors : string list;  (** empty iff the history is serializable *)
}

val recording_run : ?seed:int64 -> unit -> history
(** 60 update transactions and 25 queries over 3 nodes, interleaved with 4
    advancement rounds. *)

val verify : history -> verdict

val check : ?seed:int64 -> unit -> verdict
(** [recording_run] + [verify] with defaults. *)

val report : unit -> unit
(** Check seeds 1–5 (fanned out over {!Sim.Pool.map}) and print one
    verdict row per seed; exits 1 on an anomaly. *)
