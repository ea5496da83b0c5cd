type mutant =
  | Gc_ack_early
  | Relay_ack_early
  | Replica_ack_early
  | Index_skip_visibility
  | Savepoint_leak

type t = {
  scheme : Wal.Scheme.kind;
  eager_counter_handoff : bool;
  piggyback_version : bool;
  root_only_query_counters : bool;
  shared_transaction_counters : bool;
  abort_on_version_mismatch : bool;
  retain_extra_version : bool;
  overlap_gc : bool;
  read_service_time : float;
  write_service_time : float;
  gc_renumber : bool;
  advancement_retry : float;
  rpc_timeout : float;
  disk_force_latency : float;
  group_commit_window : float;
  group_commit_batch : int;
  rpc_batch_window : float;
  send_occupancy : float;
  tree_arity : int;
  partition_aware : bool;
  replicas : int;
  replica_catchup_timeout : float;
  max_retries : int;
  retry_backoff_base : float;
  mutant : mutant option;
}

let default =
  {
    scheme = Wal.Scheme.No_undo;
    eager_counter_handoff = false;
    piggyback_version = false;
    root_only_query_counters = false;
    shared_transaction_counters = false;
    abort_on_version_mismatch = false;
    retain_extra_version = false;
    overlap_gc = false;
    read_service_time = 0.1;
    write_service_time = 0.2;
    gc_renumber = true;
    advancement_retry = 100.0;
    rpc_timeout = infinity;
    disk_force_latency = 0.0;
    group_commit_window = 0.0;
    group_commit_batch = 64;
    rpc_batch_window = 0.0;
    send_occupancy = 0.0;
    tree_arity = 0;
    partition_aware = false;
    replicas = 0;
    replica_catchup_timeout = 25.0;
    max_retries = 5;
    retry_backoff_base = 5.0;
    mutant = None;
  }

let mutant_name = function
  | Gc_ack_early -> "Gc_ack_early"
  | Relay_ack_early -> "Relay_ack_early"
  | Replica_ack_early -> "Replica_ack_early"
  | Index_skip_visibility -> "Index_skip_visibility"
  | Savepoint_leak -> "Savepoint_leak"

let store_bound t =
  if t.overlap_gc then None
  else if t.retain_extra_version then Some 4
  else Some 3

exception Invalid of string

let invalid fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

(* A knob that must be a nonnegative finite number of virtual seconds.
   NaN fails every comparison, so the explicit check keeps it from
   slipping through as "not negative". *)
let check_time name v =
  if Float.is_nan v || v < 0.0 || v = infinity then
    invalid "%s must be a finite nonnegative time (got %g)" name v

let validate t =
  if t.tree_arity < 0 then
    invalid
      "tree_arity must be >= 0 (got %d); 0 makes every site a direct child \
       of the coordinator"
      t.tree_arity;
  (* rpc_timeout = infinity is the documented no-timeout default; zero,
     negative, and NaN would time every call out instantly or never
     settle it deterministically. *)
  if Float.is_nan t.rpc_timeout || t.rpc_timeout <= 0.0 then
    invalid "rpc_timeout must be > 0 (got %g); use infinity to disable"
      t.rpc_timeout;
  check_time "send_occupancy" t.send_occupancy;
  check_time "disk_force_latency" t.disk_force_latency;
  check_time "group_commit_window" t.group_commit_window;
  if t.group_commit_batch < 1 then
    invalid "group_commit_batch must be >= 1 (got %d)" t.group_commit_batch;
  check_time "rpc_batch_window" t.rpc_batch_window;
  check_time "read_service_time" t.read_service_time;
  check_time "write_service_time" t.write_service_time;
  if
    Float.is_nan t.advancement_retry
    || t.advancement_retry <= 0.0
    || t.advancement_retry = infinity
  then
    invalid "advancement_retry must be a finite positive period (got %g)"
      t.advancement_retry;
  if t.replicas < 0 then
    invalid "replicas must be >= 0 (got %d); 0 means single-copy partitions"
      t.replicas;
  if
    Float.is_nan t.replica_catchup_timeout
    || t.replica_catchup_timeout <= 0.0
    || t.replica_catchup_timeout = infinity
  then
    invalid
      "replica_catchup_timeout must be a finite positive time (got %g); it \
       bounds how long a round or commit waits before demoting a lagging \
       backup"
      t.replica_catchup_timeout;
  if t.max_retries < 0 then
    invalid "max_retries must be >= 0 (got %d); 0 means no automatic retry"
      t.max_retries;
  (* Base 0 means immediate retries (attempt spacing stays deterministic
     through the seeded jitter); infinity or NaN would make the first
     backoff unschedulable. *)
  check_time "retry_backoff_base" t.retry_backoff_base;
  (* A mutant whose bug site never runs would pass its clean twin
     vacuously. *)
  let requires m why = invalid "mutant %s requires %s" (mutant_name m) why in
  match t.mutant with
  | Some (Gc_ack_early as m) when t.group_commit_window <= 0.0 ->
      requires m
        "group_commit_window > 0 (without a window every commit forces \
         directly)"
  | Some (Relay_ack_early as m) when t.tree_arity <= 0 ->
      requires m "tree_arity > 0 (depth-one rounds have no relay with children)"
  | Some (Replica_ack_early as m) when t.replicas <= 0 ->
      requires m "replicas > 0 (there is no backup to acknowledge early)"
  | _ -> ()

let durability_active t =
  t.disk_force_latency > 0.0 || t.group_commit_window > 0.0

let pp ppf t =
  Format.fprintf ppf
    "{scheme=%s; eager_handoff=%b; piggyback=%b; root_only_qc=%b; \
     overlap_gc=%b; read=%g; write=%g; retry=%g; rpc_timeout=%g; force=%g; \
     gc_window=%g/%d; rpc_window=%g; tree=%d%s; replicas=%d; \
     session=%d@%g%s}"
    (Wal.Scheme.kind_name t.scheme)
    t.eager_counter_handoff t.piggyback_version t.root_only_query_counters
    t.overlap_gc t.read_service_time t.write_service_time t.advancement_retry
    t.rpc_timeout t.disk_force_latency t.group_commit_window
    t.group_commit_batch t.rpc_batch_window t.tree_arity
    (if t.partition_aware then "/pa" else "")
    t.replicas t.max_retries t.retry_backoff_base
    (match t.mutant with
    | None -> ""
    | Some m -> "; mutant=" ^ mutant_name m)
