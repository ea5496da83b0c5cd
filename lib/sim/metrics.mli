(** Per-node metrics registry.

    One registry serves a whole simulated cluster: every protocol-level
    event (commit, abort with reason, query completion, moveToFuture
    repair, advancement phase, RPC) is attributed to a node index at
    record time.  The registry is mutable and single-domain; experiment
    sweeps that fan out over domains must extract an immutable
    {!snapshot} inside the worker and ship that back.

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

val node_count : t -> int

(** {1 Recording} *)

val record_commit : t -> node:int -> unit

val record_abort :
  t ->
  node:int ->
  [ `Deadlock | `Node_down of int | `Rpc_timeout of int | `Version_mismatch ] ->
  unit
(** One aborted transaction, attributed to its root node, broken down by
    reason.  The payload of [`Node_down]/[`Rpc_timeout] (the failed peer)
    is not retained — only the reason class. *)

val record_root_down : t -> node:int -> unit
(** A transaction rejected before it began because its root node was
    down.  Counted separately from aborts: no transaction id was
    allocated and nothing was rolled back. *)

val record_query : t -> node:int -> unit
val record_mtf : t -> node:int -> at_commit:bool -> unit
val record_version_mismatch : t -> node:int -> unit

val record_phase1_duration : t -> node:int -> float -> unit
(** Advancement Phase 1 (advance-u broadcast to last ack) at the
    coordinating node. *)

val record_phase2_duration : t -> node:int -> float -> unit
val record_advancement : t -> node:int -> unit
(** One advancement round completed, attributed to its coordinator. *)

val record_rpc_call : t -> node:int -> unit
(** An RPC issued with [node] as the calling side. *)

val record_rpc_latency : t -> node:int -> float -> unit
(** Round-trip time of an RPC that completed with a reply (successful or
    carrying the callee's exception). *)

val record_rpc_timeout : t -> node:int -> unit
(** An RPC that was settled by its timeout rather than a reply. *)

val record_envelope : t -> node:int -> unit
(** One transport envelope put on the wire by [node].  Without RPC
    coalescing every logical message is its own envelope; a coalescing
    network packs a whole batch window into one. *)

val record_disk_force : t -> node:int -> records:int -> unit
(** One completed WAL force at [node], covering [records] log records.
    Group commit amortizes many commits over one force, so
    [records/forces] is the achieved batch size. *)

val record_savepoint_rollback : t -> node:int -> unit
(** One transaction-wide savepoint rollback (partial abort), attributed
    to the transaction's root node. *)

val record_session_retry : t -> node:int -> backoff:float -> unit
(** One session-layer retry of a failed transaction, attributed to the
    session's coordinator node; [backoff] is the virtual time slept
    before the new attempt. *)

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
(** Sum over all reasons; excludes {!record_root_down} rejections. *)

val total_root_down : t -> int
val total_queries : t -> int
val total_mtf_data_access : t -> int
val total_mtf_commit_time : t -> int
val total_version_mismatches : t -> int
val total_advancements : t -> int
val total_rpc_calls : t -> int
val total_rpc_timeouts : t -> int
val total_disk_forces : t -> int
val total_records_forced : t -> int
val total_savepoint_rollbacks : t -> int
val total_session_retries : t -> int
val total_session_backoff : t -> float

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
