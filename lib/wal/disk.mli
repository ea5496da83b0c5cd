(** Simulated durable-storage cost model.

    The in-memory {!Log} is free to append to; what costs time on a real
    system is the {e force} — the synchronous write barrier a committing
    transaction waits on.  A [Disk] charges a configurable virtual-time
    latency per force.  It counts nothing: {!Group_commit} reports each
    completed force and the records it covered through its [on_force]
    hook, which the cluster folds into its metrics registry.

    The disk is a {e serial} resource: concurrent forces queue behind one
    another.  That queueing is what makes group commit profitable — a
    burst of [n] independent committers pays [n] force latencies end to
    end, while one batched force serves them all. *)

type t

val create : ?force_latency:float -> unit -> t
(** [force_latency] (default [0.]) is the virtual time one force takes.
    With the default, {!force} is synchronous and touches no engine state,
    so a zero-latency disk is behaviourally invisible. *)

val force : t -> unit
(** Charge one force: queue behind any force already in progress, then
    sleep [force_latency] (must be called inside a process when the
    latency is nonzero).  The caller marks the log durable {e after} this
    returns. *)

val force_latency : t -> float
