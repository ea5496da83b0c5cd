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
    design; {!convict_racy_twin} covers that blind spot by running
    genuinely parallel queries and advancement rounds against the
    deliberately broken pin-skipping twin and demanding that a query be
    caught reading a collected version. *)

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

(** {1 Running a workload} *)

type observation =
  | Committed of { final_version : int; reads : (string * int option) list }
  | Aborted
  | Queried of { version : int; values : (int * string * int option) list }
  | Advanced of [ `Busy | `Completed of int ]

type site_state = {
  s_u : int;
  s_q : int;
  s_g : int;
  s_items : (string * (int * int option) list) list;
      (** store contents in [Vstore.Store.snapshot_items] format *)
}

type run = {
  observations : observation list;  (** one per event, in order *)
  final : site_state list;  (** one per site, in site order *)
}

val run_des : ?gc_renumber:bool -> workload -> run
val run_mcore : ?gc_renumber:bool -> ?skip_pin_recheck:bool -> workload -> run

val diff : des:run -> mcore:run -> string list
(** Human-readable divergences, empty when the runs agree. *)

val pp_observation : observation -> string

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

(** {1 The racy twin} *)

val convict_racy_twin :
  ?domains:int -> ?seconds:float -> ?twin:bool -> unit -> string list
(** On a one-site backend with [skip_pin_recheck = twin] (default
    [true]), one domain loops {!Backend.advance} while the other
    [domains - 1] (default 3) run queries until the first guard
    exception or until [seconds] (default 10) of wall time have passed;
    the advancer stops when they have.  Returns the evidence: the
    guard's exceptions raised by queries that read a collected version,
    plus [Backend.check_quiescent] residue.  Against the twin an empty list
    means it escaped conviction; against the real backend ([~twin:false])
    anything else is a bug. *)
