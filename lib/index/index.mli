(** Version-aware secondary index over a {!Vstore.Store}.

    A sorted map from an extracted attribute of the stored value to the
    primary keys carrying that attribute in any live version, each posting
    holding the store's handle on the key's record
    ({!Vstore.Store.handle}).  The version dimension is not duplicated: a
    probe walks the attribute buckets in range and reads each posting
    through its handle at the pinned query version
    ({!Vstore.Store.read_handle_le}), so index reads obey exactly the
    three-slot visibility discipline of the base store and re-look up no
    key.  A row is kept only in the bucket of its visible value's
    attribute; the per-bucket runs are already in key order and are
    merged, so no candidate set is built or sorted.  Maintenance rides the
    store's mutation listener ({!Vstore.Store.set_listener}); every
    mutation path (update execution, moveToFuture, GC, prune, WAL replay,
    replication apply, checkpoint restore) already funnels through the
    store operations that fire it, so index and base cannot diverge — a
    property {!check} verifies and {!Invariant} asserts at every quiescent
    point.

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
    at [max_int] serves each key's newest entry, which is how the
    [Index_skip_visibility] mutant of the protocol config skips the
    pinned-version visibility check. *)

val full_scan : 'v t -> lo:string -> hi:string -> int -> (string * 'v) list
(** The reference plan: [Store.scan_all] at the version, filtered by the
    attribute range.  O(items); {!probe} must match it byte-for-byte. *)

val check : 'v t -> version:int -> string list
(** Consistency audit, one message per violation (empty = consistent):
    the per-key attribute cache matches a recomputation from the base
    store, postings and cache agree in both directions, every posting's
    handle is physically the key's current record ([Store.handle base
    key]), and a full-space probe at [version] equals the full ordered
    scan. *)

type stats = { updates : int; probes : int; candidates : int }

val stats : 'v t -> stats
(** [updates] = listener firings since {!attach}; [probes] = calls to
    {!probe}; [candidates] = total postings those probes visited (a key
    with live values in several buckets of a range counts once per
    bucket). *)
