(** Per-node metrics registry.

    One registry serves a whole simulated cluster: it folds protocol
    events ({!Event.t}: commit, abort with reason, query completion,
    moveToFuture repair, advancement phase, RPC) into per-node counters
    and histograms.  The registry is mutable and single-domain;
    experiment sweeps that fan out over domains must extract an
    immutable {!snapshot} inside the worker and ship that back.

    Durations and latencies go into log2-bucketed histograms: bucket 0
    holds exact zeros, bucket [i >= 1] holds values in
    [(2^(i-18), 2^(i-17)]] with the exponent clamped to [[-16, 25]].
    True extremes are preserved in [min]/[max] even when clamped.
    Negative samples are underflow: they are tallied separately (the
    [neg] field of {!hist_snapshot}) and never land in the exact-zero
    bucket, though they still contribute to count/sum/min/max. *)

type t

val create : nodes:int -> t
(** A registry for node indices [0 .. nodes-1].  Recording against an
    out-of-range node raises [Invalid_argument]. *)

(** {1 Recording} *)

val record : t -> Event.t -> unit
(** Fold one event into the registry, against the node it names: the
    root for transaction and query outcomes, the calling side for RPCs.
    Aborts count by reason class; {!Event.Root_down} rejections are not
    aborts.  {!Event.Phase1_done} and {!Event.Phase2_done} record their
    phase's duration at the coordinator, and the latter counts one
    completed round.  {!Event.Mtf} also adds its [copied] items;
    {!Event.Backup_read}, {!Event.Backup_demoted} and {!Event.Promoted}
    count at the backup (or promoted) site.  Events with no counter are
    ignored. *)

val merge_into : into:t -> t -> unit
(** [merge_into ~into src] adds every counter and histogram of [src]
    into [into], node by node.  Raises [Invalid_argument] if the node
    counts differ.  This is how per-domain registries are combined at
    quiesce: each domain records into its own private registry (the
    registry is mutable and single-domain; see above) and the merged
    totals are taken once all domains have joined.  [src] is not
    modified. *)

(** {1 Totals} *)

val total_commits : t -> int
val total_aborts : t -> int
(** Sum over all reasons; excludes {!Event.Root_down} rejections. *)

val total_queries : t -> int
val total_mtf_data_access : t -> int
val total_mtf_commit_time : t -> int
val total_version_mismatches : t -> int
val total_advancements : t -> int
val total_disk_forces : t -> int
val total_records_forced : t -> int
val total_savepoint_rollbacks : t -> int
val total_session_retries : t -> int
val total_session_backoff : t -> float
val total_envelopes : t -> int

(** The totals below have no field in {!node_snapshot}. *)

val total_mtf_items_copied : t -> int
val total_backup_reads : t -> int
val total_demotions : t -> int
val total_promotions : t -> int

(** {1 Snapshots} *)

type hist_snapshot = {
  count : int;
  sum : float;
  min : float;  (** 0. when [count = 0] *)
  max : float;  (** 0. when [count = 0] *)
  neg : int;
      (** negative (underflow) samples; counted in [count]/[sum]/
          [min]/[max] but filed in no bucket *)
  buckets : (float * int) list;
      (** (inclusive upper bound, count) for non-empty buckets,
          ascending; bound 0. is the exact-zero bucket *)
}

type node_snapshot = {
  node : int;
  commits : int;
  aborts_deadlock : int;
  aborts_node_down : int;
  aborts_rpc_timeout : int;
  aborts_version_mismatch : int;
  root_down_rejections : int;
  queries : int;
  mtf_data_access : int;
  mtf_commit_time : int;
  version_mismatches : int;
  advancements : int;
  phase1_duration : hist_snapshot;
  phase2_duration : hist_snapshot;
  rpc_calls : int;
  rpc_timeouts : int;
  rpc_latency : hist_snapshot;
  envelopes : int;
  disk_forces : int;
  records_forced : int;
  savepoint_rollbacks : int;
  session_retries : int;
  session_backoff : float;
}

type snapshot = node_snapshot list
(** Plain immutable data: safe to return from a worker domain. *)

val snapshot : t -> snapshot

val aborts_total : node_snapshot -> int

val to_json : snapshot -> string
(** Compact JSON array, one object per node:
    [{"node":0,"commits":..,"aborts":{"deadlock":..,"node_down":..,
    "rpc_timeout":..,"version_mismatch":..,"total":..},
    "root_down_rejections":..,"queries":..,
    "mtf":{"data_access":..,"commit_time":..},"version_mismatches":..,
    "advancements":..,"phase1_duration":H,"phase2_duration":H,
    "rpc":{"calls":..,"timeouts":..,"latency":H},"envelopes":..,
    "wal":{"forces":..,"records_forced":..},
    "session":{"savepoint_rollbacks":..,"retries":..,"backoff_time":..}}]
    where H is
    [{"count":..,"sum":..,"min":..,"max":..,"neg":..,
    "buckets":[{"le":..,"count":..},...]}]. *)
