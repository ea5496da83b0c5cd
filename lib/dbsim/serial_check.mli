(** Serializability checking by history replay.

    Theorem 6.2 says an AVA3 schedule is equivalent to a serial schedule in
    which transactions are ordered by commit version, update transactions of
    a version precede its queries, and conflicting same-version update
    transactions follow their two-phase-locking order.  This module makes
    that theorem executable:

    - a {!Recorder} runs updates and queries on a cluster and records,
      for every {e committed} transaction, the values each read observed
      and each write produced, and for every query the snapshot it
      returned; {!check} drives a randomized read-modify-write workload
      with interleaved advancements through one;
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
(** The types are concrete so harnesses that drive transactions some
    other way than {!Recorder} — the session layer's retrying
    transactions, say — can add their own records and put the history
    through {!verify}. *)

val transform : salt:int -> int option -> int
(** The update function every recorded read-modify-write applies:
    distinct [(salt, old)] pairs give distinct values, so a lost update
    changes the final state and the replay catches it. *)

(** Records a history while transactions run.  The schedule explorer in
    [lib/check] records one per enumerated interleaving;
    {!check} records one per seed. *)
module Recorder : sig
  type op =
    | Rmw of int * string * int
        (** node, item, salt: writes [transform ~salt old] *)
    | Put of int * string * int  (** node, item, value *)
    | Del of int * string
    | Begin_at of int  (** join a node without touching its data *)
    | Pause of float

  type t = {
    mutable committed : txn_record list;  (** newest first *)
    mutable queries : query_record list;  (** newest first *)
    initial : (key * int) list;
  }

  val create : (key * int) list -> t
  (** An empty record over the given initial contents. *)

  val update : t -> int Ava3.Cluster.t -> root:int -> op list -> unit
  (** Run one update transaction; if it commits, record its ops in op
      order with what each RMW observed and wrote. *)

  val query : t -> int Ava3.Cluster.t -> root:int -> key list -> unit
  (** Run one query and record its snapshot.  A query cut off by
      [Node_down] or [Rpc_timeout] records nothing. *)

  val add_query : t -> int Ava3.Query_exec.result -> unit
  (** Record the rows of a query run some other way (an index select,
      say): each is a point observation at the query's version. *)

  val history : t -> int Ava3.Cluster.t -> keys:key list -> history
  (** The recorded history, oldest first, with [final_visible] read for
      [keys] at each partition's current primary. *)
end

type verdict = {
  transactions_checked : int;
  queries_checked : int;
  errors : string list;  (** empty iff the history is serializable *)
}

val verify : history -> verdict

val check : ?seed:int64 -> unit -> verdict
(** Record 60 update transactions and 25 queries over 3 nodes, interleaved
    with 4 advancement rounds, then {!verify} the history. *)

val report : unit -> unit
(** Check seeds 1–5 (fanned out over {!Sim.Pool.map}) and print one
    verdict row per seed; exits 1 on an anomaly. *)
