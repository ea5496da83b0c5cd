(** DES-vs-domains conformance harness.

    Drives one seeded workload through both execution backends — the
    lib/core discrete-event simulator and the lib/mcore domains backend
    — on a deterministic schedule (events one at a time, each run to
    completion) and diffs every observable: commit decisions, commit
    versions, every value read, advancement outcomes, and the final
    per-site version numbers and store contents.  Divergence means a
    bug in one backend; agreement lets the heavily-tested DES vouch for
    the multicore port's protocol logic.

    Concurrency-only bugs are invisible to sequential conformance by
    design; the schedule explorer's mcore scenarios cover them. *)

(** {1 Workloads} *)

type event =
  | Update of { root : int; ops : (int * int Backend.op) list }
  | Query of { root : int; reads : (int * string) list }
  | Advance of { coordinator : int }

type workload = {
  seed : int;
  sites : int;
  preload : (int * (string * int) list) list;
  events : event list;
}

val generate : seed:int -> workload
(** Pure function of [seed] (all randomness from [Sim.Rng]): 3-5 sites,
    6 keys per site preloaded at version 0, then 40 events drawn roughly
    60% multi-site updates / 25% queries / 15% advancement initiations. *)

(** {1 One-call check} *)

type stats = {
  events : int;
  commits : int;
  aborts : int;
  queries : int;
  advances : int;  (** completed advancement rounds *)
  busy : int;  (** advancement initiations refused *)
}

val check :
  ?gc_renumber:bool ->
  ?skip_pin_recheck:bool ->
  seed:int ->
  unit ->
  (stats, string list) result
(** Generate, run through both backends, diff.  [skip_pin_recheck]
    applies to the mcore side only — [check ~skip_pin_recheck:true]
    passing is part of the twin's specification (the bug is invisible
    to any sequential schedule). *)
