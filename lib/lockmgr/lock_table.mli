(** Strict two-phase-locking lock table for one node.

    Update transactions lock every item they access: shared for reads,
    exclusive for writes (paper §2).  Queries never appear here — under AVA3
    they take no locks at all.

    Blocking is cooperative: {!acquire} suspends the calling simulation
    process until the lock is granted.  Deadlocks are detected with a
    wait-for graph built from the table state; when a request would close a
    cycle it is denied with [`Deadlock] and the caller is expected to abort
    and restart its transaction.  Lock upgrades (S held, X requested) are
    honoured and queue ahead of ordinary waiters. *)

type mode = Shared | Exclusive

type outcome = [ `Granted | `Deadlock ]

type t

type group
(** A set of lock tables sharing deadlock detection.  A transaction may hold
    locks on one node while waiting on another; cycle detection must see the
    union of all nodes' wait-for edges (in a real deployment this is a
    distributed deadlock detector; the simulation gives it a global view). *)

val new_group : unit -> group

val create : ?group:group -> unit -> t
(** A table created without a group detects only local deadlocks. *)

val acquire : t -> owner:int -> key:string -> mode -> outcome
(** Block until granted or until the request is refused because it would
    deadlock.  Re-acquiring a mode already held (or acquiring S while
    holding X) succeeds immediately. *)

val holds : t -> owner:int -> key:string -> mode option
(** Strongest mode [owner] currently holds on [key]. *)

val release_all : t -> owner:int -> unit
(** Drop every lock the owner holds (commit/abort time). *)

val release_one : t -> owner:int -> key:string -> unit
(** Drop whatever the owner holds on one key (savepoint rollback: locks
    first acquired inside the rolled-back scope become re-acquirable).
    No-op if the owner holds nothing on [key]. *)

val release_shared : t -> owner:int -> unit
(** Drop only the owner's shared locks — the paper's rule that update
    transactions release read locks when sending [prepared]. *)

(** {1 Statistics} *)

val waiting_requests : t -> int
(** Live queued requests right now. *)

val iter_locked : t -> (string -> (int * mode) list -> (int * mode) list -> unit) -> unit
(** [f key holders waiters] for every key with any holder or live waiter. *)

val waits : t -> int
(** Number of acquire calls that had to block. *)

val deadlocks : t -> int
val total_wait_time : t -> float
(** Summed virtual time spent blocked in {!acquire}. *)
