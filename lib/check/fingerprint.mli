(** State fingerprinting for the schedule explorer.

    A fingerprint is a 64-bit FNV-1a digest of a canonical rendering of
    simulation state.  The explorer uses fingerprints two ways: to prune a
    schedule whose state at a choice point was already reached on another
    explored path (the futures are identical, the engine being
    deterministic), and to count distinct end states across schedules.
    Equal states always hash equal; distinct states collide with
    probability about 2{^-64}. *)

type t = int64

val empty : t
(** The fold seed. *)

(** {1 Combinators} *)

val int : t -> int -> t
val int64 : t -> int64 -> t
val bool : t -> bool -> t
val float : t -> float -> t
val string : t -> string -> t
val option : (t -> 'a -> t) -> t -> 'a option -> t
val list : (t -> 'a -> t) -> t -> 'a list -> t

val to_hex : t -> string

(** {1 Simulator state} *)

val engine : t -> Sim.Engine.t -> t
(** Virtual time, pending event count and suspended process count — the
    engine-level component every scenario fingerprint should include, so
    states equal in data but different in in-flight work stay distinct. *)

val store : (t -> 'v -> t) -> t -> 'v Vstore.Store.t -> t
(** Store contents (keys, live versions, values, tombstones) in canonical
    key order, independent of insertion history. *)

val snapshot :
  (t -> 'v -> t) -> t -> (string * (int * 'v option) list) list -> t
(** {!store} over a contents list in [Vstore.Store.snapshot] format, such
    as an [Mcore.Mstore.snapshot]. *)

val cluster : value:(t -> 'v -> t) -> 'v Ava3.Cluster.t -> t
(** Full AVA3 cluster digest: per-node liveness, [u]/[q]/[g], active
    transaction counts and store contents, the cluster-wide protocol
    counters, advancement status, and the {!engine} component. *)

val cluster_int : int Ava3.Cluster.t -> t
(** {!cluster} for the usual [int]-valued test clusters. *)
