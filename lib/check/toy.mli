(** A deliberately simplified — and optionally deliberately broken —
    single-node two-version store, modelled on [lib/baseline/two_version],
    used to validate the explorer itself: the buggy variant's anomalies
    (torn query snapshot, lost update) must be found within a bounded
    schedule count, and the corrected variant must come back clean over
    the same schedules.  Not part of the database proper. *)

type t

val create :
  engine:Sim.Engine.t -> ?buggy:bool -> ?write_time:float -> unit -> t
(** [buggy] (default false) makes {!put_all} install values without
    waiting for reader pins to drain.  [write_time] (default 0) is a
    per-item storage delay inside {!put_all}; a positive value stretches
    a multi-item commit across virtual time, opening the window the
    buggy mode's torn snapshot needs. *)

val load : t -> (string * int) list -> unit
val get : t -> string -> int option

val put_all : t -> (string * int) list -> unit
(** Commit a batch of writes.  Per item: sleep [write_time], then (in
    correct mode) wait until no query pins it, then install.  Must run
    inside a process when [write_time > 0] or in correct mode. *)

val rmw : t -> string -> (int option -> int) -> int
(** Atomic read-modify-write: observe and install in one event, no
    suspension — the corrected counterpart of an observe/sleep/install
    sequence written out by hand. *)

val query : t -> read_time:float -> string list -> (string * int option) list
(** Read the keys in order, [read_time] apart, pinning each before its
    read and releasing all pins at the end.  Must run inside a process. *)

val fingerprint : t -> Fingerprint.t
(** Store contents, pin table, commit/query counters and engine state. *)
