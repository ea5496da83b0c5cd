(** 4-ary min-heap keyed by [(time, sequence)], on parallel arrays.

    The sequence number breaks ties between events scheduled for the same
    simulated instant, giving the engine a deterministic FIFO order; since
    [(time, seq)] is a strict total order, the heap's arity and layout
    cannot affect pop order.

    Vacated payload slots are overwritten with the dummy so popped payloads
    (typically closures) become garbage-collectable immediately; a
    long-running simulation would otherwise retain every dead event closure
    until its array slot happened to be reused. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [dummy] is a throwaway payload used to scrub slots the heap no longer
    owns; it is never returned by {!pop}. *)

val is_empty : 'a t -> bool
val size : 'a t -> int

val iter : 'a t -> (float -> int -> 'a -> unit) -> unit
(** Visit every live entry as [(time, seq, payload)], in internal heap
    order (not sorted); callers needing a canonical order must sort. *)

val push : 'a t -> time:float -> seq:int -> 'a -> unit

val pop : 'a t -> (float * int * 'a) option
(** Remove and return the minimum element, or [None] if empty. *)

val pop_unsafe : 'a t -> 'a
(** Remove the minimum element and return its payload without allocating.
    The heap must be non-empty (check {!is_empty}; read the key off
    {!min_time} first if needed) — calling this on an empty heap is a
    programming error. *)

val min_time : 'a t -> float
(** Time key of the minimum element without removing it.  The heap must
    be non-empty. *)

val slot_is_vacant : 'a t -> int -> bool
(** [slot_is_vacant t i] is true when backing payload slot [i] holds no
    live entry (it is past the array, or was scrubbed after a pop).
    Vacancy is judged by physical equality with the dummy, so it is only
    meaningful for boxed payload types (the engine's event records).
    Exposed so tests can assert the no-leak property. *)
