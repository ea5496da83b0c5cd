(** Version-aware secondary index over a {!Vstore.Store}.

    A sorted map from an extracted attribute of the stored value to the
    primary keys carrying that attribute in any live version.  The version
    dimension is not duplicated: a probe resolves every candidate key
    through [Store.read_le] at the pinned query version and re-checks the
    attribute range, so index reads obey exactly the three-slot visibility
    discipline of the base store.  Maintenance rides the store's mutation
    listener ({!Vstore.Store.set_listener}); every mutation path (update
    execution, moveToFuture, GC, prune, WAL replay, replication apply,
    checkpoint restore) already funnels through the store operations that
    fire it, so index and base cannot diverge — a property {!check}
    verifies and {!Invariant} asserts at every quiescent point.

    Visibility contract: [probe t ~lo ~hi v] is byte-identical to
    [Store.scan_all base v] filtered to values whose extracted attribute
    lies in [\[lo, hi\]] — the full-scan plan ({!full_scan}). *)

type 'v t

val attach : 'v Vstore.Store.t -> extract:('v -> string) -> 'v t
(** Build the index over the store's current contents and install the
    mutation listener.  One index per store (the listener slot is
    single-occupancy). *)

val detach : 'v t -> unit
(** Remove the listener; the index stops tracking the store. *)

val base : 'v t -> 'v Vstore.Store.t
val extract : 'v t -> 'v -> string

val probe : 'v t -> lo:string -> hi:string -> int -> (string * 'v) list
(** [probe t ~lo ~hi v]: every (key, value) visible at version [v] whose
    extracted attribute is in [\[lo, hi\]], ascending by key.  Probing
    at [max_int] serves each candidate's newest entry, which is how the
    [Index_skip_visibility] mutant of the protocol config skips the
    pinned-version visibility check. *)

val full_scan : 'v t -> lo:string -> hi:string -> int -> (string * 'v) list
(** The reference plan: [Store.scan_all] at the version, filtered by the
    attribute range.  O(items); {!probe} must match it byte-for-byte. *)

val check : 'v t -> version:int -> string list
(** Consistency audit, one message per violation (empty = consistent):
    the per-key attribute cache matches a recomputation from the base
    store, postings and cache agree in both directions, and a full-space
    probe at [version] equals the full ordered scan. *)

type stats = { updates : int; probes : int; candidates : int }

val stats : 'v t -> stats
(** [updates] = listener firings since {!attach}; [probes] = calls to
    {!probe}; [candidates] = total candidate keys those probes resolved. *)
