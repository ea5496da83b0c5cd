(** Per-partition primary–backup replication (asynchronous WAL shipping).

    With [Config.replicas = r > 0] every partition has a primary plus [r]
    backup sites.  All updates run at primaries; each primary ships its
    WAL to its backups in [Ship] batches (event-driven — commits,
    advancement phases and GC poke the shipper, which ships at once).  A
    backup appends the shipped records to its own log and applies them
    one by one with {!Node_state.apply} — crash replay's
    {!Wal.Recovery.redo} for transaction records, the primary's own rule
    for version records — so its store tracks the primary's committed
    state and its log is always a prefix of the primary's (per epoch).

    {b Version-pinned reads}: a backup serves a read pinned at version [v]
    only once its applied query version has reached [v]
    ({!route_read}).  {b Advancement}: Phase 2 cannot retire the past
    version until every live in-sync backup has acknowledged the
    primary-log prefix ending at the phase's own record; a straggler is
    demoted (out of the read set) rather than allowed to stall the round.
    {b Commit}: the same gate runs at commit time, which is what makes
    promotion lossless for acknowledged commits.  {b Failover}: when a
    primary crashes, the live in-sync backup with the longest log replays
    it — the ordinary crash-recovery path — and takes over.

    Every cluster runs through this module: [replicas = 0] means every
    partition has zero backups, not a separate code path.  Such a
    partition ships nothing, its gates return at once, {!route_read}
    returns its primary, and a crash of its primary finds no backup to
    promote, so the partition is down until that site recovers. *)

(** {1 Shipping} *)

val poke : _ Cluster_state.t -> int -> unit
(** [poke cs p] ships partition [p]'s unshipped durable log suffix to each
    live backup now (and rewinds cursors whose ships appear lost —
    unacknowledged for a full [replica_catchup_timeout]); nothing when
    the partition has no backups. *)

val handle_ship :
  'v Cluster_state.t ->
  int ->
  part:int ->
  epoch:int ->
  from_:int ->
  records:'v Wal.Record.t list ->
  unit
(** Backup-side ingest of a [Ship] batch (see {!Messages.t} for the epoch
    discipline).  Appends the unseen suffix, applies it, and answers with
    a cumulative [Ship_ack]. *)

val handle_ship_ack :
  _ Cluster_state.t -> int -> src:int -> part:int -> epoch:int -> upto:int -> unit
(** Primary-side ingest of a [Ship_ack]: advances the backup's cursor,
    re-promotes a demoted backup that has caught back up to the ship
    horizon, and wakes any catch-up gate. *)

(** {1 Catch-up gates} *)

val gate : 'v Cluster_state.t -> 'v Node_state.t -> unit
(** Run at a primary once a record it is about to acknowledge is durable:
    wait until every live in-sync backup has acknowledged up to the
    current durable log tip, demoting stragglers at
    [replica_catchup_timeout].  A no-op at a backup, at a dead node and
    at a partition without backups.
    After a subtransaction's commit record: any backup still eligible
    for promotion holds this commit.  Before either advancement phase is
    acknowledged — Phase 1: in-sync backups hold the [Advance_update]
    record before the round proceeds, so no two in-sync copies ever
    disagree on both counters; Phase 2: backups hold the
    [Advance_query] record (and all commits before it) before the
    cluster may retire the past version their pinned readers could
    still need. *)

val commit_fate :
  'v Cluster_state.t ->
  'v Node_state.t ->
  txn:int ->
  [ `Own_log | `Successor of 'v Node_state.t | `Lost ]
(** After {!gate} returned with [nd] dead: whether transaction
    [txn]'s commit record survives in the partition's authoritative copy.
    [`Own_log]: no failover happened — the dead node is still the primary
    and recovers with its own durable log.  [`Successor nd']: the
    partition failed over and the promoted primary [nd'] holds the
    record (the caller should gate again at [nd'] before acknowledging).
    [`Lost]: the successor does not hold it, and the deposed primary
    rejoins empty — the commit is gone and no acknowledgment may
    escape. *)

val after_gc : _ Cluster_state.t -> int -> unit
(** After Phase 3 appends the [Collect] record at a primary whose
    partition has a backup: force it and ship it, so backup garbage
    versions converge.  A partition without backups leaves the record
    unforced. *)

(** {1 Read routing} *)

val route_read : _ Cluster_state.t -> src:int -> part:int -> pin:int -> int
(** The site that should serve a read of partition [part] pinned at
    version [pin], issued from site [src]: round-robin across the primary
    and every live, in-sync, reachable backup whose applied query version
    has reached [pin].  A partition without backups: its primary, with no
    candidate list built. *)

(** {1 Failover and recovery hooks} *)

val recover_from_log :
  'v Cluster_state.t -> site:int -> 'v Wal.Log.t -> Wal.Recovery.versions
(** WAL-replay recovery, shared by a crashed primary ({!Cluster.recover}),
    a promoted backup and a same-epoch backup: rebuild the store from
    [log], install a node built from the cluster's config at [site]
    (counters at zero, index re-attached, replay's redo buffer kept) and
    return the recovered version numbers. *)

val on_crash : _ Cluster_state.t -> site:int -> int option
(** Called by {!Cluster.crash} after the site is killed and marked down.
    Backup: demoted out of the read set.  Primary: the best backup (live,
    in-sync, longest log; ties to the lowest site id) is promoted by WAL
    replay, the partition's topology is rewritten to the new primary,
    surviving backups resync from it, and its site is returned (the
    caller moves mid-flight advancement rounds over with
    {!Advancement.on_promotion}).  With no such backup the partition
    stays down until the site recovers. *)

val recover_as_backup : _ Cluster_state.t -> site:int -> unit
(** Called by {!Cluster.recover} for a site that is not its partition's
    current primary.  A crashed backup whose log belongs to the current
    ship epoch replays it and rejoins out-of-sync (re-promoted once it
    catches up).  If the partition failed over or checkpointed while the
    backup was down — its epoch is stale — or if the site is a deposed
    primary, its log may hold records that exist nowhere in the surviving
    history, so it rejoins {e empty} and full-resyncs from the current
    primary. *)

val on_checkpoint : _ Cluster_state.t -> site:int -> unit
(** Called after a primary's quiescent checkpoint truncated its log:
    starts a new ship epoch and full-resyncs the backups. *)
