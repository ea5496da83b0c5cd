(** Shared state of an AVA3 cluster — internal plumbing.

    This module is the record the protocol components ({!Advancement},
    {!Query_exec}, {!Update_exec}) operate on; applications should use the
    {!Cluster} facade instead. *)

(** The acknowledgment state of one advancement phase at one position of
    a round's relay tree: which direct child subtrees have acknowledged
    and whether the site's own local work is durably complete.  A relay
    keeps one per phase, keyed by [(root, version, kind)] — racing
    coordinators can run the same version with different trees, and
    their aggregation must stay separate; the coordinator keeps its
    current phase's at position [0].  Volatile: wiped by a crash, and
    rebuilt by the coordinator's retransmission after recovery. *)
type relay = {
  r_root : int;
  r_ver : int;  (** the phase's [newu] ([`U]) or [newq] ([`Q]) *)
  r_kind : [ `U | `Q ];
  mutable r_sites : int array;
      (** the round's tree layout (see {!Messages.t}'s [Relay]), the
          coordinator at position [0]; failover replaces every record's
          copy with one naming the promoted backup in the dead primary's
          position, and a duplicate frame's layout replaces the copy *)
  r_nparts : int;
      (** how many leading positions of the layout are barrier
          participants (the coordinator included) *)
  r_pos : int;
  r_child_acks : bool array;
      (** one slot per child position present in [r_sites]; slots at
          non-participant positions start [true] *)
  mutable r_self_done : bool;
  mutable r_acked : bool;  (** upward [Relay_ack] already sent *)
}

(** Coordinator-side state of one advancement run (paper §3.2). *)
type coord = {
  c_newu : int;
  c_started : float;  (** when this run broadcast its advance-u *)
  mutable c_phase1_done : float;
      (** when the last advance-u ack arrived (meaningful once [c_round]
          is the advance-q phase) *)
  mutable c_abandoned : bool;
  mutable c_round : relay;
      (** the current phase, aggregated as a relay at position [0]; its
          own share is acknowledged plain, to itself *)
}

(** One backup of one partition, as its current primary sees it.  The
    cursor and flags are primary-side volatile state: failover rebuilds
    them.  The backup's data lives in its site's {!Node_state.t}, which
    applies shipped records with {!Node_state.apply}. *)
type 'v backup = {
  b_part : int;
  b_site : int;
  b_cursor : Wal.Ship.t;
  mutable b_insync : bool;
      (** [false] once demoted (catch-up timeout) or freshly (re)joined;
          an out-of-sync backup keeps receiving ships but serves no reads
          and gates no barrier until it catches back up *)
}

(** Replication topology.  With [Config.replicas = 0] this is the identity
    layout (every site its own partition's primary, no backups), run by
    the same code as a replicated one. *)
type 'v repl = {
  nparts : int;  (** partitions = the [~nodes] given to {!create} *)
  primary_of : int array;  (** partition -> current primary site *)
  part_of : int array;  (** site -> partition *)
  mutable backups_of : 'v backup array array;
      (** partition -> current backups (rewritten by failover) *)
  ship_epoch : int array;
      (** partition -> truncation generation of the current primary's log
          (see {!Messages.t}'s [Ship]) *)
  site_epoch : int array;
      (** site -> generation of the log that site holds; a backup whose
          epoch trails its partition's [ship_epoch] needs a full resync *)
  mutable rr : int;  (** round-robin read-routing counter *)
  repl_changed : Sim.Condition.t array;
      (** partition -> broadcast on the partition's ship acks, demotions
          and promotions, and at a catch-up gate's deadline — what the
          partition's catch-up gates wait on *)
}

type 'v t = {
  engine : Sim.Engine.t;
  config : Config.t;
  net : 'v Messages.t Net.Network.t;
  metrics : Sim.Metrics.t;
      (** per-node event counts and latency histograms; every protocol
          component records into this registry, and {!Cluster.stats} is
          derived from it *)
  lock_group : Lockmgr.Lock_table.group;
      (** shared deadlock-detection group spanning all nodes *)
  mutable nodes : 'v Node_state.t array;
  coords : coord option array;  (** per-node active coordination, if any *)
  relays : relay list array;
      (** per-node relay aggregation state of the rounds it takes part in *)
  frozen_at : (int, float) Hashtbl.t;
      (** version -> virtual time it became stable (all its update
          transactions finished); feeds the staleness metric of §8 *)
  state_changed : Sim.Condition.t;
      (** broadcast whenever any node's u/q/g changes *)
  repl : 'v repl;
  index_extract : ('v -> string) option;
      (** when set, every site carries a {!Vindex.Index} on this attribute
          extractor, re-attached across recovery and store swaps *)
}

val create :
  engine:Sim.Engine.t ->
  config:Config.t ->
  nodes:int ->
  ?latency:Net.Latency.t ->
  ?index_extract:('v -> string) ->
  unit ->
  'v t
(** [nodes] counts {e partitions}; with [config.replicas = r > 0] the
    cluster has [nodes * (1 + r)] sites — partition primaries at sites
    [0 .. nodes-1], backup [j] of partition [p] at
    [nodes + p*r + j]. *)

val node : 'v t -> int -> 'v Node_state.t
val node_count : _ t -> int
(** Total sites, including backups. *)

val attach_index_if_configured : 'v t -> 'v Node_state.t -> unit
(** Re-attach the configured secondary index (if any) on a node rebuilt by
    crash recovery or failover; no-op on clusters created without
    [~index_extract]. *)

(** {1 Replication topology} *)

val nparts : _ t -> int
(** Partition count (the [~nodes] of {!create}). *)

val primary_site : _ t -> int -> int
val primary : 'v t -> int -> 'v Node_state.t
val part_of_site : _ t -> int -> int
val is_primary_site : _ t -> int -> bool

val home_site : _ t -> int -> int
(** Resolve a partition id to its current primary site; ids past the
    partition range pass through unchanged. *)

val resolve_plan :
  _ t ->
  who:string ->
  node:('p -> int * 'p list) ->
  rebuild:('p -> int -> 'p list -> 'p) ->
  'p ->
  'p
(** A tree executor's plan with every node resolved once through
    {!home_site}, so the whole tree follows a failover.  [node] gives a
    plan node's partition and children, [rebuild] the node at its site
    with its resolved children.  Raises [Invalid_argument] (prefixed
    [who]) if two plan nodes resolve to one site. *)


val backups : 'v t -> int -> 'v backup array

val backup_at : 'v t -> int -> 'v backup option
(** The backup record whose site this is, if the site currently is one. *)

val synced : 'v t -> 'v Node_state.t -> bool
(** A live primary or a live in-sync backup: a copy whose version counters
    advancement rounds wait for and cross-node invariants bind. *)

val note_repl_change : _ t -> int -> unit
(** [note_repl_change t p] wakes the catch-up gates of partition [p]. *)

val note : _ t -> Sim.Event.t -> unit
(** Record a protocol event in the metrics registry and append it to the
    engine trace (when that is on). *)

val now : _ t -> float

val note_version_change : _ t -> unit
(** Wake everyone watching for u/q/g movement. *)

val gc_lag : _ t -> int
(** How many extra rounds garbage collection trails: [1] in the
    four-version baseline ([Config.retain_extra_version]), else [0]. *)

val catch_up_gc : 'v t -> 'v Node_state.t -> target:int -> unit
(** Collect the node's garbage one version at a time until its [g]
    reaches [target] (or the node dies). *)

val raise_u : 'v t -> 'v Node_state.t -> int -> unit
(** The one rule for raising a site's update version to [v]: first
    collect everything up to [v - 3 - gc_lag] — a version [v] anywhere
    proves advance-u([v]) was issued, so the paper's Phase-1 inference
    holds — then set [u] if it is below [v].  Every path that raises [u]
    (Phase 1, a commit decided in a later version, a piggybacked version
    at subtransaction start) goes through here; otherwise a site that
    lost its unforced Collect records in a crash would hold a fourth live
    version once it learned of [v]. *)

val freeze_version : _ t -> int -> unit
(** Record that [version] is now stable (first recording wins). *)

val staleness_of : _ t -> version:int -> at:float -> float option
(** Age of the snapshot [version] at time [at]: [at - frozen_at version].
    [None] if the version's freeze time is unknown (still being written). *)
