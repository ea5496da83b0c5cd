(** Protocol configuration for an AVA3 cluster.

    The flags marked "§8"/"§10" enable the paper's optional optimisations;
    the defaults give the base protocol of §3, so ablation experiments can
    toggle one flag at a time. *)

(** Deliberately broken twins of the protocol, one known bug each, that
    the schedule explorer must convict ([Scenarios.registry] in
    [lib/check]). *)
type mutant =
  | Gc_ack_early
      (** Group commit acks waiters at enqueue, {e before} the force
          ({!Wal.Group_commit.create}'s [ack_early]): a crash in between
          loses an acked commit.  Requires [group_commit_window > 0]. *)
  | Relay_ack_early
      (** A relay acks upward once its {e own} work is durable, before its
          subtree has: the coordinator can freeze a version a descendant
          still updates.  Requires [tree_arity > 0]. *)
  | Replica_ack_early
      (** A backup acks a shipped batch, and bumps its visible versions, on
          receipt, {e before} applying it: pinned reads routed there miss
          committed writes.  Requires [replicas > 0]. *)
  | Index_skip_visibility
      (** Index probes serve each candidate's {e newest} entry instead of
          the pinned one: right at quiescence, wrong when a commit or
          moveToFuture lands between pin and probe. *)
  | Savepoint_leak
      (** Savepoint rollback keeps the locks first acquired inside the
          scope ({!Subtxn.rollback_to}): still serializable, but a
          deadlock-free workload now deadlocks. *)

val mutant_name : mutant -> string
(** The constructor's name, e.g. ["Gc_ack_early"]. *)

type t = {
  scheme : Wal.Scheme.kind;
      (** Recovery scheme, which determines the moveToFuture implementation
          (§4).  Default [No_undo]. *)
  eager_counter_handoff : bool;
      (** §8: when a subtransaction runs moveToFuture, immediately move its
          update-counter occupancy to the new version so Phase 1 need not
          wait for long-running transactions that have already moved.
          Default [false]. *)
  piggyback_version : bool;
      (** §10: update subtransactions carry the root's current version and
          start at [max carried (u_i)], cutting commit-time moveToFutures.
          Default [false]. *)
  root_only_query_counters : bool;
      (** §10: only a query's root subtransaction maintains the query
          counter.  Default [false]. *)
  shared_transaction_counters : bool;
      (** §10: one transaction counter per version instead of separate query
          and update counters — sound because reads only ever use a version
          after all its updates finished, so the two populations never
          occupy the same version's slot at the same time.  Default
          [false]. *)
  abort_on_version_mismatch : bool;
      (** Baseline mode (not part of AVA3): instead of repairing a version
          mismatch with moveToFuture, abort the transaction — the behaviour
          of the MPL92-style distributed extension whose advancement is
          synchronous with user transactions.  Default [false]. *)
  retain_extra_version : bool;
      (** Baseline mode (not part of AVA3): keep one extra old query version
          (four versions total, as in MPL92/WYC91) so Phase 2 never waits
          for running queries; garbage collection trails one round behind.
          Default [false]. *)
  overlap_gc : bool;
      (** §8 relaxation: a node may start a new advancement once Phases 1–2
          of the previous one finished, letting garbage collection complete
          in the background.  More than three copies may then accumulate
          transiently (the store bound is lifted), but user transactions
          still only touch the latest three.  Default [false]. *)
  read_service_time : float;
      (** Virtual time one data-item read costs (storage access). *)
  write_service_time : float;
      (** Virtual time one data-item write costs. *)
  gc_renumber : bool;
      (** Phase-3 rule for items with no incarnation at the new query
          version: [true] (default) renumbers their old entry per the paper,
          visiting every live item each round; [false] keeps the entry in
          place, bounding GC work by the items actually written (see
          {!Vstore.Store.create} and experiment E8b). *)
  advancement_retry : float;
      (** Coordinator retransmission period for unacknowledged advancement
          messages (covers participant crashes; the paper only assumes
          eventual delivery). *)
  rpc_timeout : float;
      (** Default timeout (virtual seconds) for subtransaction RPCs; a call
          whose request or reply is lost surfaces as
          [Net.Network.Rpc_timeout] at the caller after this long.  Default
          [infinity] — benign runs without faults never time out; set a
          finite value when crashes or partitions are injected. *)
  disk_force_latency : float;
      (** Virtual time one WAL force costs ({!Wal.Disk}).  Default [0.] —
          the log behaves as synchronously durable and commits pay
          nothing, matching the pre-durability-model simulator. *)
  group_commit_window : float;
      (** Group-commit batching window ({!Wal.Group_commit}): how long the
          first committer of a batch waits for company before the force.
          Default [0.] — each commit forces its own records. *)
  group_commit_batch : int;
      (** Force early once this many committers are queued (only
          meaningful with a nonzero window).  Default [64]. *)
  rpc_batch_window : float;
      (** Per-destination message-coalescing window for the network
          ({!Net.Network.create}'s [batch_window]).  Default [0.] — every
          message is its own envelope. *)
  send_occupancy : float;
      (** Sender-side serialization cost per remote message
          ({!Net.Network.create}'s [send_occupancy]): each outbound message
          reserves the source's transmitter that long before departing, so
          an [O(N)] coordinator broadcast pays [O(N)] at the sender.
          Default [0.] — departure is immediate, as in earlier builds. *)
  tree_arity : int;
      (** Arity of the relay tree every advance/GC round fans out through,
          with acknowledgments aggregated bottom-up ({!Messages.t}'s
          [Relay] / [Relay_ack]).  [0] (default) puts every participant
          directly under the coordinator — a depth-one tree, the paper's
          broadcast round.  A positive arity cuts the coordinator's
          per-round traffic from [O(N)] messages to [O(arity)] at depth
          [O(log_arity N)]. *)
  partition_aware : bool;
      (** Exclude sites that host no data items from the Phase 1/2
          acknowledgment barriers, at any [tree_arity] (they still receive
          every advancement message fire-and-forget, so their version
          counters converge).  Sound only under the confinement contract: update
          writes, transaction roots, and query roots never run at data-empty
          sites — excluding a site that can start transactions or queries
          would break the freeze barrier.  Default [false]. *)
  replicas : int;
      (** Per-partition primary–backup replication: each partition (the
          [~nodes] of [Cluster.create]) gets this many backup sites that
          follow the primary by asynchronous WAL shipping and serve
          version-pinned reads once caught up ({!Replication}).  [0]
          (default) is the paper's single-copy system: every partition
          has zero backups and runs the same code paths. *)
  replica_catchup_timeout : float;
      (** How long an advancement round's Phase 2 (and a commit's
          replicate-then-ack wait) waits for a backup to acknowledge
          catch-up before demoting it instead of stalling — the
          partition-tolerance escape hatch.  Also the re-ship period for
          repairing batches lost to a partition.  Finite positive;
          default [25.]. *)
  max_retries : int;
      (** Session layer ({!Session}): how many times [Session.txn] re-runs
          a client function after a retryable failure ([Aborted],
          [Root_down], [Rpc_timeout]) before surfacing the last error.  [0]
          disables automatic retry (one attempt only).  Default [5]. *)
  retry_backoff_base : float;
      (** Session layer: base of the seeded exponential backoff — attempt
          [k] sleeps [retry_backoff_base * 2^k * jitter] virtual seconds
          with jitter drawn from the session's own [Rng] stream in
          [0.5, 1.5).  [0.] retries immediately.  Default [5.]. *)
  mutant : mutant option;
      (** Fault injection for the schedule explorer: the one known bug to
          switch on.  Never set outside the checker.  Default [None]. *)
}

val default : t

exception Invalid of string
(** Raised by {!validate} with a human-readable description of the first
    nonsensical knob found. *)

val validate : t -> unit
(** Reject nonsensical knob combinations before they cause silent
    misbehavior deep in a run: negative [tree_arity], [rpc_timeout <= 0]
    (or NaN — [infinity] is the documented "no timeout"), negative or
    non-finite [send_occupancy] / [disk_force_latency] /
    [group_commit_window] / [rpc_batch_window] / service times,
    [group_commit_batch < 1], a non-positive or infinite
    [advancement_retry], negative [replicas], and a [mutant] without
    its precondition (each message names the mutant).
    Raises {!Invalid}; returns unit on a sane config.  Called by
    [Cluster.create], so every simulator entry point inherits the
    check; CLI frontends call it early to fail before any setup. *)

val durability_active : t -> bool
(** Whether the simulated disk costs anything ([disk_force_latency > 0] or
    [group_commit_window > 0]).  When [false], a crash must not lose log
    records — the whole log is treated as synchronously durable, exactly
    the semantics every experiment had before the durability model. *)

val store_bound : t -> int option
(** The per-item live-version cap every node's store enforces: [None]
    under [overlap_gc], [Some 4] under [retain_extra_version], else
    [Some 3]. *)

val pp : Format.formatter -> t -> unit
(** One-line summary of the main knobs, ending with the mutant's name
    when one is set. *)
