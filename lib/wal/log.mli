(** Append-only write-ahead log for one node.

    The log is kept in memory (the simulated node's "disk"): appends are
    counted so experiments can report log traffic, and {!Recovery} replays
    the log after a simulated crash.

    The log tracks a {e durable prefix}: appends land in the volatile tail
    and become durable only when a force ({!mark_durable_to}, driven by
    {!Disk}/{!Group_commit}) covers them.  A simulated crash discards the
    volatile tail ({!drop_volatile}); recovery then replays only what a real
    disk would have retained. *)

type 'v t

val create : unit -> 'v t

val append : 'v t -> 'v Record.t -> unit

val length : _ t -> int

val records : 'v t -> 'v Record.t list
(** In append order. *)

val slice : 'v t -> from_:int -> upto:int -> 'v Record.t list
(** Records with 0-based indexes [from_ .. upto - 1], in append order —
    the shape a log-shipping cursor sends to a replica.  Raises
    [Invalid_argument] on a range outside the log. *)

val truncate : _ t -> unit
(** Discard all records (used after a checkpoint in long experiments so logs
    do not grow without bound).  Resets the durable prefix to empty. *)

(** {1 Durability} *)

val durable_length : _ t -> int
(** Number of leading records known to be on disk. *)

val mark_durable_to : _ t -> int -> unit
(** Extend the durable prefix to cover the first [n] records (a completed
    disk force).  Regressions are ignored; [n] beyond the end of the log
    raises [Invalid_argument]. *)

val mark_all_durable : _ t -> unit
(** Mark every current record durable — synchronous-write semantics, used
    for bootstrap loads and checkpoints. *)

val drop_volatile : _ t -> int
(** Simulate the crash: discard every record beyond the durable prefix and
    return how many were lost.  What remains is exactly what recovery may
    read. *)
