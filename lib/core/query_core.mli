(** Shared scaffolding of read-only transactions — the runtime under
    {!Query_exec.run}, {!Query_exec.run_scan}, {!Query_exec.run_select},
    {!Query_exec.run_join} and {!Tree_query}.

    A [Query_core.t] owns the query lifecycle the five drivers share: the
    version pin with the root counter increment (§3.3 step 1), child-node
    catch-up ([set_q]) and counter registration guarded by a closed flag,
    and the ordered counter release — children first, root last — on
    both the success and crash paths.  It also owns the flat drivers'
    routing rule ({!fetch}) and the select step both executors use
    ({!select}).  The drivers keep only their read shape: point reads,
    range scans, attribute selects, a join, or a concurrent subquery
    tree. *)

type 'v result = {
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

type 'v t

val run :
  'v Cluster_state.t ->
  root:int ->
  kind:Sim.Event.query_kind ->
  ('v t -> (int * string * 'v option) list * 'a) ->
  'v result * 'a
(** Run one read-only transaction rooted at [root].  Pin
    [V(Q) = q_root] and increment the root's query counter (§3.3 step 1,
    atomic), run the body, then release the counters in order — children
    first, root last (the root's drain is what unblocks Phase 2) — count
    the query against the root node and build the result from the values
    the body returns.  The body's second component (a join's pairs) is
    passed through.  If the body raises, the counters are released as
    far as they can be and the exception is re-raised.  The release runs
    on direct references, not network calls, so the decrements reach
    child nodes even if the root's node has died.  Raises
    [Net.Network.Node_down] if the root node is down.  [kind] only
    flavours the trace lines. *)

val version : _ t -> int
val root_node : 'v t -> 'v Node_state.t

val fetch : 'v t -> int -> ('v Node_state.t -> 'a) -> 'a
(** The flat executors' per-partition step: run [f] on the node that
    serves partition [n] for this query.  The root partition is read at
    the pinned root node.  A replicated partition is read at the site
    {!Replication.route_read} picks, the primary or a backup caught up to
    the pin; any other node is read at itself.  A non-root node is
    reached by RPC and visited first: on first visit its query version
    catches up and it registers in its counter until the query ends.  A
    request whose caller already timed out takes no counter. *)

val enter_subquery : 'v t -> int -> 'v Node_state.t * bool
(** Tree-style visit of site [n]: take the node's counter for the
    duration of one subquery, returning whether one was actually taken
    ([false] after the query closed, or when per-child counters are off).
    Raises [Net.Network.Node_down] if the node is down. *)

val leave_subquery : 'v t -> 'v Node_state.t -> taken:bool -> unit
(** Release the counter taken by {!enter_subquery}, if any.  Call
    before propagating child errors, so the subquery's own counter is
    safely released first. *)

val index : 'v Node_state.t -> 'v Vindex.Index.t
(** The node's secondary index.  Raises [Invalid_argument] if the cluster
    carries none ([Cluster.create] without [~index]). *)

val select :
  'v t ->
  plan:[ `Index | `Full_scan | `Both_check ] ->
  'v Node_state.t ->
  lo:string ->
  hi:string ->
  (string * 'v) list * (string * 'v) list option
(** One attribute-range select on the node at the query's pin, by the
    access path [plan] ({!Query_exec.select_plan}) — the one index read
    of both the flat and the tree executor.  Returns the rows in index
    order ({!Vindex.Index.probe}), and under [`Both_check] the full-scan
    reference for the caller to compare.  Under the [Index_skip_visibility]
    mutant the index probe runs at [max_int], serving each key's newest
    entry. *)
