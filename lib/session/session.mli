(** Client session layer: pooled coordinators, savepoint-scoped nested
    transactions, and seeded automatic retry on top of {!Ava3.Txn_core}.

    A session is what application code holds instead of a raw cluster
    handle.  It pools logical connections (4 by default), each pinned to a
    coordinator partition (round-robin over the cluster), and runs client
    functions as update transactions:

    {[
      let s = Session.create db ~seed:42L in
      match
        Session.txn s (fun c ->
            let bal = Session.read c ~node:0 "acct" in
            Session.write c ~node:0 "acct" (credit bal);
            bal)
      with
      | Committed { value; attempts; _ } -> ...
      | Failed { last; attempts; _ } -> ...
    ]}

    Failures classified as retryable — [Aborted] (deadlock, RPC timeout,
    node down, version mismatch under the abort baseline) and [Root_down]
    — are retried up to [Config.max_retries] times with seeded exponential
    backoff: attempt [k] sleeps [retry_backoff_base * 2^k * jitter] virtual
    seconds, jitter uniform in [0.5, 1.5) from the session's own
    {!Sim.Rng} stream, so a run is reproducible from [(seed, workload)]
    and adding a session never perturbs other components' streams.

    {b Idempotence guard.}  A commit round that fails after the version
    was decided is not blindly retried: once the decision is taken, the
    session {e redrives} it — {!Ava3.Subtxn.commit} is idempotent, waits
    out a pending durability force, and refuses stale deliveries to a
    participant that already rolled back — until every participant's
    commit record is durable (the acked-then-timed-out outcome is then
    reported as [Committed]; retrying would double-apply it) or a
    participant's node has died with its records unforced.  Only a
    transaction with {e no} durable participant and no participant still
    in the decision-in/force-pending window is rerun from the client
    function.  The remaining edge — some participants durable, the rest
    lost in a crash — is the model's acknowledged atomicity hole for a
    node dying mid-commit-round: it surfaces as [Failed] without retry,
    with the durable participants listed so an oracle can account for
    the writes that did land.

    All entry points must run inside a simulation process
    ({!Sim.Engine.spawn}). *)

type 'v t
(** A session over an ['v Ava3.Cluster.t]. *)

val create :
  ?pool:int -> ?coordinators:int list -> seed:int64 -> 'v Ava3.Cluster.t -> 'v t
(** [create db ~seed] opens a session.  [?pool] is its number of logical
    connections (default 4, must be [>= 1]); [?coordinators] pins them to
    the given partitions instead of round-robin over all of them.  [seed]
    feeds the session's private jitter/choice stream (forked by name, so
    equal seeds give equal streams regardless of draw order elsewhere). *)

val per_partition : seed:int64 -> 'v Ava3.Cluster.t -> 'v t array
(** One single-connection session pinned to each partition [p], seeded
    [seed + p]: for callers that draw each transaction's root
    themselves. *)

(** {1 Transactions} *)

type 'v ctx
(** Handle to the in-flight transaction, passed to the client function.
    Valid only for the duration of that call. *)

exception Rollback
(** Raised by client code inside {!nested} to abandon the innermost scope:
    the scope's writes are erased and its locks released, and [nested]
    returns [Error `Rolled_back].  Raised outside any scope it aborts the
    whole transaction attempt (recorded as a deadlock-class abort) and is
    not retried — the client abandoned the transaction on purpose. *)

val read : 'v ctx -> node:int -> string -> 'v option
val write : 'v ctx -> node:int -> string -> 'v -> unit
val rmw : 'v ctx -> node:int -> string -> ('v option -> 'v) -> unit
val delete : 'v ctx -> node:int -> string -> unit
val pause : _ ctx -> float -> unit

val nested :
  'v ctx -> (unit -> 'a) -> ('a, [ `Rolled_back | `Deadlock ]) result
(** [nested c f] runs [f] as a savepoint-scoped inner transaction,
    flattened into the enclosing one (the paper's subtransactions nest by
    node, not by program structure, so program-level nesting maps to
    savepoints — PROTOCOL.md "Savepoints").  On normal return the scope is
    released (merged into the parent).  On {!Rollback} the scope is rolled
    back and [Error `Rolled_back] returned.  On a deadlock denial whose
    transaction is still live, the scope is rolled back — releasing its
    locks, which may break the cycle — and [Error `Deadlock] returned; the
    caller decides whether to rerun the scope or raise.  Any other
    failure (node down, RPC timeout, sibling abort) propagates and aborts
    the whole attempt.  Scopes nest arbitrarily. *)

type failure =
  | Aborted of Ava3.Txn_core.abort_reason
  | Root_down of int  (** the coordinator partition that was down *)

type ('v, 'a) commit = {
  value : 'a;  (** the client function's return value *)
  txn_id : int;
  final_version : int;  (** [V(T)] *)
  attempts : int;  (** 1 = committed first try *)
  reads : (string * 'v option) list;  (** in request order *)
  finished_at : float;
  participants : (int * float) list;
      (** (node, local commit time) per participant, as in
          {!Ava3.Update_exec.commit_info} — what serializability oracles
          order same-version conflicts by.  May be incomplete when the
          outcome was recovered by the idempotence guard (the failed
          commit round did not report every participant's time). *)
}

type ('v, 'a) outcome =
  | Committed of ('v, 'a) commit
  | Failed of {
      attempts : int;
      last : failure;  (** the final attempt's error *)
      durable : (int * float) list;
          (** participants of the final attempt whose commit records are
              durable despite the failure — non-empty only in the
              crash-partial edge (see the idempotence guard above), where
              the listed homes hold the transaction's writes for good *)
      version : int;
          (** the decided [V(T)] of the final attempt, [0] if it failed
              before the decision; meaningful alongside [durable] *)
    }
      (** retry budget exhausted (or the failure was not retryable) *)

val txn : 'v t -> ('v ctx -> 'a) -> ('v, 'a) outcome
(** Run [f] as an update transaction on the next pooled connection,
    retrying per the session discipline above.  This is the one retry
    path for AVA3 update transactions that may meet faults. *)

(** {1 Read-only queries}

    Routed through the same pooled coordinators with the same retry
    discipline (queries hold no locks, so every failure is retryable). *)

val query :
  'v t -> reads:(int * string) list -> ('v Ava3.Query_exec.result, failure) result

val select :
  'v t ->
  plan:Ava3.Query_exec.select_plan ->
  ranges:(int * string * string) list ->
  ('v Ava3.Query_exec.result, failure) result

val join :
  'v t ->
  plan:Ava3.Query_exec.select_plan ->
  build:int list * string * string ->
  probe:int list * string * string ->
  ('v Ava3.Query_exec.join_result, failure) result

(** {1 Scenario DSL}

    One program, three harnesses: the same ['v prog] value runs under the
    stress driver ([stress.exe --sessions]), the DES experiment harness
    (EXPERIMENTS.md E15) and the model checker ([check.exe]) — only the
    [choose] function differs (seeded for the first two, explorer-branch
    for the checker), so a counterexample schedule found by exploration
    replays the exact program the other harnesses measured. *)
module Dsl : sig
  (** One step inside an update transaction. *)
  type 'v step

  val sread : node:int -> string -> 'v step
  val swrite : node:int -> string -> 'v -> 'v step
  val srmw : node:int -> string -> ('v option -> 'v) -> 'v step
  val sdelete : node:int -> string -> 'v step
  val spause : float -> 'v step

  val scope : 'v step list -> 'v step
  (** Savepoint-scoped inner transaction ({!nested}): kept on success;
      a deadlock denial inside rolls the scope back and then re-raises, so
      the enclosing attempt aborts and the session retry takes over. *)

  val expect_abort : 'v step list -> 'v step
  (** Like {!scope}, but the scope always ends with {!Rollback}: its
      writes must leave no trace.  Exercises the rollback path on purpose
      (the DSL twin of a business-rule violation handler). *)

  (** A program: a tree of transactions, queries and control flow. *)
  type 'v prog

  val txn : 'v step list -> 'v prog
  val query : (int * string) list -> 'v prog
  val select :
    plan:Ava3.Query_exec.select_plan ->
    ranges:(int * string * string) list ->
    'v prog
  val join :
    plan:Ava3.Query_exec.select_plan ->
    build:int list * string * string ->
    probe:int list * string * string ->
    'v prog
  val seq : 'v prog list -> 'v prog
  val loop : int -> 'v prog -> 'v prog
  val choice : label:string -> 'v prog list -> 'v prog
  (** Resolved by the interpreter's [choose] function: seeded pick under
      stress/DES, {!Sim.Engine.branch} decision under the checker. *)

  val pause : float -> 'v prog

  type summary = {
    committed : int;
    failed : int;
    attempts : int;  (** total attempts across all transactions *)
    queries : int;  (** read-only programs that completed *)
    query_failures : int;
    rolled_back : int;  (** [expect_abort] scopes that rolled back *)
  }

  val empty_summary : summary
  val add_summary : summary -> summary -> summary

  val run :
    ?choose:(label:string -> int -> int) -> 'v t -> 'v prog -> summary
  (** Interpret the program through the session.  [choose] resolves every
      {!choice} (default: seeded from the session's {!rng}); pass
      {!explorer_choose} under the model checker. *)

  val explorer_choose : _ t -> label:string -> int -> int
  (** Routes each choice through {!Sim.Engine.branch}, making it a
      first-class exploration decision the checker enumerates. *)

  val gen :
    rng:Sim.Rng.t -> nodes:int -> keys_per_node:int -> txns:int -> int prog
  (** Seeded random program over the standard integer-counter workload:
      [txns] transactions of 2–6 steps (reads, increments, writes,
      deletes) over [nodes * keys_per_node] items named ["k<node>_<i>"],
      about a quarter wrapped in savepoint scopes and an eighth in
      [expect_abort] scopes, separated by occasional pauses and queries.
      Equal seeds generate equal programs. *)

  val gen_key : node:int -> int -> string
  (** ["k<node>_<i>"] — the key namespace {!gen} draws from, exposed so
      oracles can enumerate it. *)
end
