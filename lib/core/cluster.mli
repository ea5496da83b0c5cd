(** Public facade of the AVA3 distributed three-version database.

    A cluster is [n] nodes on a simulated network, each running strict 2PL
    for update transactions, the R* tree commit protocol with version
    piggybacking, and the asynchronous three-phase version-advancement
    protocol.  Queries read a consistent (possibly stale) snapshot without
    locks; update transactions never wait for queries or for version
    advancement.

    {b Typical use} (inside a simulation process):

    {[
      let engine = Sim.Engine.create () in
      let db : int Ava3.Cluster.t =
        Ava3.Cluster.create ~engine ~nodes:3 () in
      Ava3.Cluster.load db ~node:0 [ ("x", 1); ("y", 2) ];
      Sim.Engine.spawn engine (fun () ->
        match
          Ava3.Cluster.run_update db ~root:0
            ~ops:[ Write { node = 0; key = "x"; value = 7 } ]
        with
        | Committed _ -> ()
        | Aborted _ -> ());
      Sim.Engine.run engine
    ]} *)

type 'v t

val create :
  engine:Sim.Engine.t ->
  ?config:Config.t ->
  ?latency:Net.Latency.t ->
  ?index:('v -> string) ->
  nodes:int ->
  unit ->
  'v t
(** [index], when given, attaches a {!Vindex.Index} on the extracted
    attribute at every site (primaries and backups), maintained
    synchronously through every store mutation and rebuilt across crash
    recovery, failover, and checkpoint application.  It enables
    {!run_select} and {!run_join} and adds an index↔base consistency check
    to {!check_invariants} / {!check_quiescent_invariants}. *)

val engine : _ t -> Sim.Engine.t
val config : _ t -> Config.t

val node_count : _ t -> int
(** Total sites.  With [Config.replicas = r > 0] this is
    [nodes * (1 + r)]: the [~nodes] given to {!create} count partitions,
    each with a primary (sites [0 .. nodes-1]) plus [r] backups.  The
    execution APIs keep taking partition ids; they resolve to the
    partition's current primary internally. *)

val partitions : _ t -> int
(** Partition count (the [~nodes] of {!create}); equals {!node_count}
    when unreplicated. *)

val node : 'v t -> int -> 'v Node_state.t
val network : 'v t -> 'v Messages.t Net.Network.t

val state : 'v t -> 'v Cluster_state.t
(** Escape hatch to the internals, used by the experiment harness. *)

val load : 'v t -> node:int -> (string * 'v) list -> unit
(** Preload data items at version 0 (initial database population; not a
    transaction). *)

(** {1 Transactions} *)

val run_query :
  'v t -> root:int -> reads:(int * string) list -> 'v Query_exec.result
(** See {!Query_exec.run}. *)

val run_update : 'v t -> root:int -> ops:'v Update_exec.op list -> 'v Update_exec.outcome
(** One attempt; see {!Update_exec.run}.  To retry, run the transaction
    through [Session.txn]: it finishes a commit round whose version was
    decided instead of rerunning it, so no commit is applied twice. *)

val run_scan :
  'v t -> root:int -> ranges:(int * string * string) list -> 'v Query_exec.result
(** Lock-free ordered range scans over the query snapshot; see
    {!Query_exec.run_scan}. *)

val run_select :
  'v t ->
  root:int ->
  plan:Query_exec.select_plan ->
  ranges:(int * string * string) list ->
  'v Query_exec.result
(** Predicate range query over the secondary index (attribute ranges, not
    key ranges); see {!Query_exec.run_select}.  Requires [~index] at
    {!create}. *)

val run_join :
  'v t ->
  root:int ->
  plan:Query_exec.select_plan ->
  build:(int list * string * string) ->
  probe:(int list * string * string) ->
  'v Query_exec.join_result
(** Hash join of two attribute ranges as one long read-only
    transaction; see {!Query_exec.run_join}.  Requires [~index] at
    {!create}. *)

val run_tree_update : 'v t -> plan:'v Tree_txn.plan -> 'v Tree_txn.outcome
(** Execute an update transaction as a concurrent R*-style subtransaction
    tree; see {!Tree_txn.run}. *)

val run_tree_query : 'v t -> plan:Tree_query.plan -> 'v Query_exec.result
(** Execute a read-only query as a concurrent subquery tree; see
    {!Tree_query.run}. *)

(** {1 Version advancement} *)

val advance : 'v t -> coordinator:int -> [ `Started of int | `Busy ]
val advancement_in_progress : 'v t -> bool

val advance_and_wait : 'v t -> coordinator:int -> [ `Completed of int | `Busy ]
(** Initiate advancement and block until every node finished Phase 3 of the
    round.  Must run inside a process. *)

val start_periodic_advancement :
  'v t -> coordinator:int -> period:float -> until:float -> unit
(** Spawn a background process that initiates advancement every [period]
    time units (skipping beats while one is still running) until virtual
    time [until]. *)

val start_continuous_advancement :
  'v t -> coordinator:int -> until:float -> unit
(** §8 limiting mode: advancements run back to back (each new round starts
    as soon as the previous round's data is readable everywhere).  Combine
    with {!Config.overlap_gc} to let garbage collection trail in the
    background.  In this mode a query's snapshot is stale by at most the
    age of the longest query running when it started. *)

val start_periodic_checkpoints :
  'v t -> period:float -> until:float -> ?min_log:int -> unit -> unit
(** Background process that opportunistically checkpoints quiescent nodes
    whose logs exceed [min_log] records (default 64), bounding recovery
    time and memory. *)

val checkpoint : 'v t -> node:int -> bool
(** Take a quiescent checkpoint at the node, truncating its log; [false] if
    update transactions are active there (nothing happens). *)

(** {1 Failures} *)

val crash : 'v t -> node:int -> unit
(** Take the site down: volatile state (counters, in-flight transactions)
    is lost; messages to and from it are dropped.  With replication,
    crashing a partition's primary promotes its best surviving backup
    (live, in sync, longest log) via WAL-replay recovery — acknowledged
    commits survive; crashing a backup just removes it from the read set
    until it recovers and catches back up. *)

val recover : 'v t -> node:int -> unit
(** Replay the site's log, rebuilding its store and version numbers;
    counters restart at zero.  The site rejoins the network.  With
    replication, a site that is no longer its partition's primary rejoins
    as a backup: a crashed backup resumes from its own log, while a
    deposed primary discards its (possibly divergent) state and resyncs
    in full from the new primary. *)

val nemesis_target : _ t -> Net.Nemesis.target
(** Adapter for {!Net.Nemesis.install}: crashes and recoveries go through
    {!crash}/{!recover} (volatile state wiped, WAL replayed on recovery);
    partitions and slow links act on the network alone. *)

(** {1 Introspection} *)

type stats = {
  commits : int;
  aborts : int;
  queries : int;
  advancements : int;
  mtf_data_access : int;  (** moveToFuture calls triggered by data access *)
  mtf_commit_time : int;  (** moveToFuture calls triggered at commit *)
  mtf_trivial : int;
      (** of those, virtual no-ops: all of them under [No_undo], none
          under [Undo_redo] *)
  mtf_items_copied : int;
  commit_version_mismatches : int;
  messages : int;
  envelopes : int;
      (** Transport events on the wire; < [messages] when RPC coalescing
          packs several legs into one envelope. *)
  disk_forces : int;  (** Completed WAL forces across all nodes. *)
  records_forced : int;
  lock_waits : int;
  lock_wait_time : float;
  deadlocks : int;
  latch_acquisitions : int;
      (** Counter increments and decrements (the paper's latched counter
          updates). *)
  max_versions_ever : int;
  backup_reads : int;  (** Reads served by backup replicas. *)
  replica_demotions : int;
      (** Backups dropped from the read set (catch-up timeout or crash). *)
  replica_promotions : int;  (** Backups promoted to primary by failover. *)
}

val stats : _ t -> stats
(** Cluster-wide totals, from three sources:
    - the {!metrics} registry, which lives as long as the cluster: every
      protocol-event count, that is every field but the six below
      ([mtf_trivial] is the moveToFuture total under [No_undo], 0 under
      [Undo_redo]);
    - components the lock-based baselines share: [messages] from the
      network, and [lock_waits], [lock_wait_time] and [deadlocks] from the
      nodes' lock tables;
    - the node objects: [latch_acquisitions], and [max_versions_ever], the
      stores' high-water marks.
    Recovery replaces a node object together with its lock table and
    store, so a crash resets that node's share of the lock counts,
    [latch_acquisitions] and [max_versions_ever]; registry totals never
    fall. *)

val pp_stats : Format.formatter -> stats -> unit

val metrics : _ t -> Sim.Metrics.t
(** The cluster's live per-node metrics registry (commit/abort/query
    counts with abort-reason breakdown, moveToFuture split, advancement
    phase durations, RPC latency histograms).  {!stats} totals are
    derived from it. *)

val metrics_snapshot : _ t -> Sim.Metrics.snapshot
(** Immutable copy of the registry — safe to ship across domains from a
    {!Sim.Pool.map} worker. *)

val check_invariants : 'v t -> string list
val check_quiescent_invariants : 'v t -> string list

val staleness_of_version : _ t -> version:int -> at:float -> float option
