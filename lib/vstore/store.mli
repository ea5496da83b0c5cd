(** Versioned key-value storage engine.

    Each data item [x] exists in a small set of integer versions; the store
    answers the two index questions the AVA3 paper requires (§3): does [x]
    exist in version [v], and what is [maxV(x)]?  Deletions are modelled as
    tombstones inside a version (paper §3.1), and the Phase-3
    garbage-collection rules (drop the collected version, or renumber it to
    the query version when the item has no newer incarnation) are provided
    as a single {!gc} operation.

    The store can be created with a [bound] on live versions per item; AVA3
    uses [bound = 3] and the store raises {!Version_bound_exceeded} if a
    write would violate it — turning the paper's central claim into a
    runtime-checked invariant.  Baselines that need unlimited versions
    create unbounded stores. *)

type version = int

exception Version_bound_exceeded of { key : string; versions : version list }

type 'v t

val create : ?bound:int -> ?gc_renumber:bool -> ?size:int -> unit -> 'v t
(** [bound], if given, is the maximum number of simultaneously live versions
    of any single item (AVA3: 3).  [size] (default 1024) is the initial
    size of the item table, which grows as needed.

    [gc_renumber] (default [true]) selects the garbage-collection rule for
    items with no incarnation at the new query version: the paper's
    renumbering rule moves their old entry to the query version — touching
    {e every} live item each round — while [false] keeps the old entry in
    place (readers resolve to it anyway), letting the version index bound
    GC work by the items actually written.  Both rules are read-equivalent;
    experiment E8b measures the difference.

    The version index keeps, for each version, the handles of the items
    that gained an entry there.  Writes only append to it; a handle whose
    entry has gone since (or whose item was removed) goes stale and is
    skipped when {!gc} reads the list, and the lists are compacted once
    the handles appended since the last compaction outnumber the live ones
    it kept, so their size stays proportional to the live entries. *)

(** {1 Index queries} *)

val exists_in : _ t -> string -> version -> bool
(** Is there an entry (value or tombstone) for this key at exactly this
    version? *)

val max_version : _ t -> string -> version option
(** [maxV(x)]: greatest version in which the item exists, or [None] if the
    item is unknown. *)

val versions_of : _ t -> string -> version list
(** All live versions of the item, ascending. *)

(** {1 Reads} *)

val read_le : 'v t -> string -> version -> 'v option
(** [read_le t x v] is the value of [x] in the greatest existing version not
    exceeding [v] — the visibility rule used by both queries and update
    transactions.  [None] when the item is absent or deleted as of [v]. *)

val read_exact : 'v t -> string -> version -> 'v option
(** Value stored at exactly this version ([None] if absent or tombstone). *)

val range : 'v t -> lo:string -> hi:string -> version -> (string * 'v) list
(** Ordered scan: keys in [\[lo, hi\]] (inclusive) with their value as of
    [version], ascending; items deleted or absent as of that version are
    skipped.  O(log n + results) over the store's ordered key index. *)

val scan_all : 'v t -> version -> (string * 'v) list
(** Full ordered scan: every key with its value as of [version], ascending.
    O(items) by construction — filtered to an attribute range and put in
    index order, the reference plan a secondary-index probe
    ({!Index.probe}) must match byte-for-byte at the same version. *)

(** {2 Item handles}

    A handle is the store's own record for one item: reading through it
    skips the key lookup.  Derived structures (lib/index) keep one per
    posting.  A handle stays the item's record for as long as the item has
    a live value entry: the store discards a record only when it holds no
    value entry (it is empty, or a lone tombstone that {!gc} or
    {!prune_below} removes), and it notifies the listener
    ({!set_listener}) with the key when it does.  A listener that drops
    its handle for a key once the key has no live value entry therefore
    never holds a discarded record: a later write of the key makes a new
    record, and notifies again. *)

type 'v handle

val handle : 'v t -> string -> 'v handle option
(** The item's current record, or [None] if the key is unknown. *)

val read_handle_le : 'v handle -> version -> 'v option
(** {!read_le} through a handle: the same slot code, without the lookup. *)

val fold_values : ('a -> 'v -> 'a) -> 'a -> 'v handle -> 'a
(** Fold over the values of the item's live value entries (tombstones
    skipped), newest version first. *)

(** {1 Writes} *)

val write : 'v t -> string -> version -> 'v -> unit
(** Create or overwrite the item's entry at [version]. *)

val copy_forward : 'v t -> string -> src:version -> dst:version -> unit
(** Duplicate the entry (value or tombstone) at [src] into [dst]; the
    update-protocol step "create y in version V(T) by copying y(maxV(y))".
    Raises [Not_found] if nothing exists at [src]. *)

val delete : 'v t -> string -> version -> unit
(** Tombstone the item in [version].  The tombstone persists (uncommitted
    transactions may still reference it); items reduced to a lone tombstone
    are physically removed at garbage-collection time, per paper §3.1. *)

val remove_version : _ t -> string -> version -> unit
(** Physically drop the entry at [version] (no-op if absent); used by
    moveToFuture to undo a transaction's effect on the old version. *)

(** {1 Change notification (derived structures)} *)

val set_listener : 'v t -> (string -> unit) option -> unit
(** Install (or clear) the store's single mutation listener: it is called
    with the affected key after every {!write}, {!delete}, {!copy_forward}
    and {!remove_version}, and once for each item whose live entries {!gc}
    or {!prune_below} changed (removing the item counts as a change); items
    those two visit but leave as they were are not reported.  Because every
    mutation path (update execution, moveToFuture, WAL replay, replication
    apply, checkpoint restore) funnels through those operations, a derived
    structure that re-derives the key's state on each call stays exactly
    consistent with the base store.  The no-listener path costs one
    load-and-branch. *)

(** {1 Snapshots (checkpoint support)} *)

val snapshot : 'v t -> (string * (version * 'v option) list) list
(** A copy of the store's contents: items sorted by key, each with its
    (version, value-or-tombstone) pairs ascending; [None] encodes a
    tombstone. *)

val restore :
  ?bound:int ->
  ?gc_renumber:bool ->
  (string * (version * 'v option) list) list ->
  'v t
(** Rebuild a store (and its version index) from a {!snapshot}. *)

(** {1 Garbage collection (advancement Phase 3)} *)

val gc : _ t -> collect:version -> query:version -> unit
(** For every item: if it has an entry visible to a reader at [query]
    (version in [(collect, query]]), drop every entry with version
    [<= collect]; otherwise renumber its newest entry [<= collect] to
    [query] (and drop older ones).  Items left with only a tombstone and no
    earlier version are removed.  Each item is changed in place, by
    dropping its oldest entries and at most one renumbering; the listener
    fires for each item whose live entries changed, not for every item
    visited. *)

val prune_below : _ t -> keep:version -> unit
(** MVCC-style garbage collection: for every item, keep the newest entry
    with version [<= keep] (the one a reader at snapshot [keep] needs) and
    everything newer; drop all older entries.  Items reduced to a lone
    tombstone are removed.  The listener fires for each item whose live
    entries changed. *)

(** {1 Iteration and statistics} *)

val item_count : _ t -> int
val iter : (string -> (version * [ `Value | `Tombstone ]) list -> unit) -> _ t -> unit
(** [f key entries] for every item, in ascending key order (the order of
    {!range}); [entries] are the item's live entries, oldest first. *)

val live_versions : _ t -> string -> int
(** Number of live versions of the item (0 if unknown). *)

val max_live_versions_now : _ t -> int
(** Largest number of live versions any current item has. *)

val high_water_versions : _ t -> int
(** Largest number of live versions any item has ever had — the statistic
    that verifies "at most three versions" (paper §6.2 property 2a). *)

val gc_items_visited : _ t -> int
(** Cumulative count of items {!gc} has checked, changed or not: each call
    counts the items that, when it starts, have an entry at a version it
    collects from — at or below [collect] under the renumbering rule, at
    [collect] or [query] under the in-place rule — each once, however many
    handles the version index holds for it.  This is proportional to the
    items that actually had entries in those versions, not to the store
    size. *)

val version_histogram : _ t -> (int * int) list
(** [(k, n)] pairs: [n] items currently have [k] live versions. *)
