(** Recording of timestamped simulation events.

    Protocol code emits typed {!Event.t}s; the Table 1 and Figure 1
    reproductions and counterexample timelines read them back. *)

type entry = {
  time : float;
  event : Event.t;
  process : string option;
      (** name of the simulation process that emitted the entry, when it
          was spawned with [Engine.spawn ~name] *)
}

type t

val create : ?enabled:bool -> ?capacity:int -> unit -> t
(** [capacity], if given, bounds the trace to the most recent [capacity]
    entries, kept in a preallocated ring (no allocation per emit); older
    ones are dropped.  Unbounded by default.  A bound keeps memory flat
    when millions of short engine runs each record a trace (schedule
    exploration). *)

val emit : t -> time:float -> ?process:string -> Event.t -> unit
(** Record one entry (no-op when disabled).  [process] attributes the
    entry to a named simulation process. *)

val entries : t -> entry list
(** Recorded entries in emission order — all of them when unbounded, the
    most recent [capacity] otherwise. *)

val pp_entry : Format.formatter -> entry -> unit
(** [[time] tag <process> text], the text by {!Event.pp}. *)
