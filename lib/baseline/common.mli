(** Shared plumbing for the baseline protocols. *)

val read_time : float
(** Virtual time one data-item read costs: [0.1], AVA3's default
    [Config.read_service_time]. *)

val write_time : float
(** Virtual time one data-item write costs: [0.2], AVA3's default
    [Config.write_service_time]. *)

val fresh_txn_id : unit -> int
(** Domain-wide transaction id allocator for baselines (ids only need to be
    unique within one engine run, and every engine run executes on a single
    domain; a domain-local counter keeps parallel sweeps race-free). *)

val retry :
  max_attempts:int ->
  backoff:float ->
  (unit -> [ `Committed | `Aborted ]) ->
  Workload.Db_intf.update_outcome
(** The harness restart rule, inside a process: rerun after every abort,
    [max_attempts] attempts in all, [backoff] apart.  Safe only where an
    abort leaves nothing committed, as in the fault-free suites. *)
