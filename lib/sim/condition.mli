(** Condition variables for simulation processes.

    A condition carries no value: a waiter parks until some other process
    broadcasts.  The usual lost-wakeup caveat applies, so most call sites
    should use {!await_until}, which re-checks a predicate after every
    wakeup.  A wait with a deadline schedules its own event that
    broadcasts at the deadline and parks with {!await}. *)

type t

val create : unit -> t

val await : t -> unit
(** Park the calling process until the next broadcast.  O(1). *)

val await_until : t -> pred:(unit -> bool) -> unit
(** [await_until c ~pred] returns immediately if [pred ()] holds, otherwise
    parks, re-testing [pred] after each wakeup. *)

val broadcast : t -> unit
(** Wake all current waiters, oldest first. *)
