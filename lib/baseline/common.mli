(** Shared plumbing for the baseline protocols, and the strict-2PL update
    engine under the lock-based ones. *)

val read_time : float
(** Virtual time one data-item read costs: [0.1], AVA3's default
    [Config.read_service_time]. *)

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

(** {1 The strict-2PL engine}

    A lock-based baseline is a per-node store, a commit-time install rule
    and a query path.  Everything else — running an update under strict
    two-phase locking with deferred writes, restarting it after a
    deadlock, and counting what it waited for — lives here. *)

type 's locking = {
  engine : Sim.Engine.t;
  net : unit Net.Network.t;
  stores : 's array;  (** one per node *)
  locks : Lockmgr.Lock_table.t array;
      (** one per node, all in one deadlock-detection group *)
  mutable commits : int;
  mutable aborts : int;  (** deadlock victims, restarted or not *)
}

val locking : engine:Sim.Engine.t -> nodes:int -> (unit -> 's) -> 's locking
(** [nodes] sites, each with a store from the thunk, over a network with
    the default latency. *)

exception Deadlocked

val lock :
  's locking ->
  txn:int ->
  touched:(int, unit) Hashtbl.t ->
  node:int ->
  key:string ->
  Lockmgr.Lock_table.mode ->
  unit
(** Note [node] in [touched], then block until the lock is granted.
    @raise Deadlocked when granting it would close a wait-for cycle. *)

val release : 's locking -> txn:int -> (int, unit) Hashtbl.t -> unit
(** Drop every lock [txn] holds at the nodes in [touched]. *)

val update :
  's locking ->
  root:int ->
  ops:Workload.Db_intf.op list ->
  install:(unit -> node:int -> string -> int -> unit) ->
  Workload.Db_intf.update_outcome
(** Run one update: reads take shared locks, writes take exclusive locks
    and are buffered.  At commit, [install ()] is called once and the
    function it returns installs each buffered write at its node; a node
    releases its locks once its writes are in.  The values reads return
    are not used, so an attempt only charges their time.  A deadlocked
    attempt releases its locks and restarts under {!retry} (10 attempts,
    5.0 apart). *)

val lock_stats : 's locking -> (string * float) list
(** Lock waits, lock wait time and deadlocks summed over the nodes, then
    commits and aborts. *)
