(** The paper's measurable claims (§6.2 invariants, §8 staleness and eager
    hand-off, §9 comparison, §10 piggyback) as experiments E3–E15.

    An experiment is data: rows of labelled run specs, interpreted by one
    runner, and columns that render each row's results into cells.  Every
    run is deterministic under its seed and owns its engine, so a sweep
    fans out over {!Sim.Pool.map} and the table is identical at any
    domain width.  Each run records its cluster's metrics under the
    experiment's tag and the run's label (see {!Report.record_metrics}). *)

type t
type cell =
  | Int of int
  | Float of int * float  (** decimal places, value *)
  | Text of string

type table = { header : string list; cells : cell list list }

val run : ?domains:int -> t -> table
(** Run every spec over [domains] workers (default
    {!Sim.Pool.default_domains}) and render the cells. *)

val check : t -> table -> unit
(** The cross-row self-check, if the experiment has one: prints its
    verdict, or raises [Failure] when the rows break it. *)

val value : table -> row:int -> string -> float
(** The numeric cell of [row] under a column header. *)

val text : table -> row:int -> string -> string
(** Any cell of [row], as printed. *)

(** {1 Experiments}

    E3 [invariants], E4a [staleness], E4b [publish_lag], E4c [continuous],
    E5 [comparison], E6 [move_to_future], E6b [piggyback], E7a
    [centralized], E7b [sync_aborts], E8a [ablations], E8b [gc_cost], E8c
    [tree_vs_flat], E9 [scalability], E10 [faults], E11 [batching], E12
    [hierarchy], E13 [replication], E14 [analytical] and E15
    [session_retry]; EXPERIMENTS.md describes each and its expected shape.
    Optional arguments shrink a sweep; the defaults give the published
    tables.  E14 checks that the update counters do not depend on the
    access-path plan, E15 that the program counts do not depend on the
    retry policy; E12's rows run one at a time so its events/s column is
    single-domain wall clock. *)

val invariants : ?nodes:int list -> ?duration:float -> unit -> t
val staleness : ?periods:float list -> ?eager:bool list -> unit -> t
val publish_lag : ?long_txn_duration:float -> unit -> t
val continuous : unit -> t
val comparison : ?duration:float -> unit -> t
val move_to_future : unit -> t
val piggyback : unit -> t
val centralized : unit -> t
val sync_aborts : unit -> t
val ablations : ?duration:float -> unit -> t
val gc_cost : unit -> t
val tree_vs_flat : unit -> t
val scalability : unit -> t
val faults : unit -> t
val batching : unit -> t
val hierarchy : ?sizes:int list -> ?replicas:int -> unit -> t
val replication : ?horizon:float -> unit -> t
val analytical : ?horizon:float -> unit -> t
val session_retry : ?horizon:float -> unit -> t

val suites : (string * (unit -> unit)) list
(** Every deterministic bench suite by name, in [bench/main.exe] order:
    the Table 1 and Figure 1 replays, the serializability check, and the
    experiments printed as tables.  A suite that finds a violation exits
    1 or raises. *)
