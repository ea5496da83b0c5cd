(** Test-and-set spinlock latch for the multicore backend.

    The real-concurrency counterpart of the simulator's accounting-only
    [Lockmgr.Latch]: mutual exclusion over genuinely parallel domains,
    meant for short latched sections such as the store's buckets, never
    held across blocking work (the backend's one-round-at-a-time rule
    holds one for a whole round, but only ever try-acquires it).  One
    atomic word: an uncontended acquire and a release are one atomic
    operation each, counting included. *)

type t

val create : unit -> t

val acquire : t -> unit
(** Spin (with [Domain.cpu_relax]) until the latch is taken.  Not
    reentrant: acquiring a latch the caller already holds deadlocks. *)

val try_acquire : t -> bool
(** Take the latch iff it is free; never spins. *)

val release : t -> unit
(** Release a latch the caller holds.  Releasing a free latch is a bug
    (it would count as a phantom acquisition and leave the latch held). *)

val with_latch : t -> (unit -> 'a) -> 'a
(** [with_latch t f] runs [f] holding the latch, releasing on return or
    exception. *)

val acquisitions : t -> int
(** Lifetime successful acquisitions (the statistic Table 2-style
    experiments report). *)
