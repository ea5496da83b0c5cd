(** Read-only transaction (query) execution (paper §3.3).

    Queries acquire no locks and write nothing to the data they read; the
    only mutation they perform is a latched increment/decrement of the query
    counters.  The root subquery pins the query version [V(Q) = q_root]; all
    subqueries read the maximum existing version of each item not exceeding
    [V(Q)].  A subquery arriving at a node whose query version lags behind
    [V(Q)] triggers that node's query-version advancement locally. *)

type 'v result = 'v Query_core.result = {
  txn_id : int;
  version : int;  (** [V(Q)] — the snapshot the query read *)
  values : (int * string * 'v option) list;
      (** (node, key, value) per read, in request order *)
  started_at : float;
  finished_at : float;
  staleness : float option;
      (** age of the snapshot at query start: start time minus the time
          version [V(Q)] stopped changing *)
}

val run : 'v Cluster_state.t -> root:int -> reads:(int * string) list -> 'v result
(** Execute a query rooted at [root] reading the given (node, key) pairs in
    order.  Must be called inside a simulation process.  Raises
    [Net.Network.Node_down] if a touched node is down (queries at dead nodes
    simply fail; they hold no state needing cleanup beyond counters, which
    this function releases). *)

val run_scan :
  'v Cluster_state.t ->
  root:int ->
  ranges:(int * string * string) list ->
  'v result
(** Like {!run}, but each element is a lock-free ordered range scan
    [(node, lo, hi)] over the query's snapshot; results arrive as
    (node, key, Some value) per matching item, in key order per range.
    The motivating decision-support queries (account histories, audits) are
    scans — queries read a consistent snapshot, so no predicate locking is
    needed. *)

(** {1 Predicate selects and joins (secondary index)} *)

type select_plan =
  [ `Index  (** probe the {!Vindex.Index}: O(matching rows) per partition *)
  | `Full_scan
    (** visit every item visible at the pin and filter: O(items) —
        the reference plan, byte-identical in results *)
  | `Both_check
    (** equivalence oracle: run both plans back-to-back at the same pinned
        version and raise {!Index_mismatch} if they differ (charged as the
        index plan) *) ]

exception
  Index_mismatch of {
    node : int;
    version : int;
    indexed : int;  (** rows the index probe returned *)
    full_scan : int;  (** rows the reference full scan returned *)
  }
(** Raised (after counter release) by [`Both_check] when an index probe
    disagrees with the full-scan plan at the same pinned version — never on
    a correct index, by the {!Vindex.Index} visibility contract. *)

val run_select :
  'v Cluster_state.t ->
  root:int ->
  plan:select_plan ->
  ranges:(int * string * string) list ->
  'v result
(** Predicate range query: each element [(node, lo, hi)] selects the rows
    of that partition whose {e extracted attribute} lies in [\[lo, hi\]],
    as of the query's pinned version; results arrive as
    (node, key, Some value), ascending by key per range.  Requires the
    cluster to carry a secondary index ([Cluster.create ~index]). *)

type 'v join_row = int * string * 'v

type 'v join_result = {
  join : 'v Query_core.result;
      (** the underlying read-only transaction; [values] holds every build
          then probe row the join consumed, in fan-out order *)
  pairs : ('v join_row * 'v join_row) list;
      (** matched (build, probe) pairs, in (build, probe) row-id order *)
}

val run_join :
  'v Cluster_state.t ->
  root:int ->
  plan:select_plan ->
  build:(int list * string * string) ->
  probe:(int list * string * string) ->
  'v join_result
(** Hash join of two attribute ranges — each side a (partitions,
    attr-lo, attr-hi) fan-out — executed as one long read-only transaction
    under a single pinned version and joined at the root on the indexed
    attribute ({!Vindex.Join.hash_join}).  The pairs come out in (build,
    probe) row-id order, so whenever the per-side inputs hold the same
    rows they are independent of the access-path [plan]. *)
