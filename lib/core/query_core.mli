(** Shared scaffolding of read-only transactions — the runtime under
    {!Query_exec.run}, {!Query_exec.run_scan} and {!Tree_query}.

    A [Query_core.t] owns the query lifecycle the three paths used to
    duplicate: the version pin with the root counter increment (§3.3
    step 1), child-node catch-up ([set_q]) and counter registration
    guarded by the [closed] flag, and the ordered counter release —
    children first, root last — on both the success and crash paths.
    The drivers keep only their read shape: flat reads, flat range
    scans, or a concurrent subquery tree. *)

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

val start :
  'v Cluster_state.t ->
  root:int ->
  kind:Sim.Event.query_kind ->
  'v t
(** Pin [V(Q) = q_root], increment the root's query counter (§3.3
    step 1, atomic) and emit the start trace.  Raises
    [Net.Network.Node_down] if the root node is down.  [kind] only
    flavours the trace lines. *)

val version : _ t -> int
val root_node : 'v t -> 'v Node_state.t
val txn_id : _ t -> int

val visit : 'v t -> int -> 'v Node_state.t
(** Flat-executor visit of child node [n] (run inside the RPC at [n]):
    on first visit, catch the node's query version up and register in
    its counter, deferring the release to the query's own [finish].
    No-op after the query closed — a request whose caller already timed
    out must not take counters no cleanup pass will ever see. *)

val enter_subquery : 'v t -> int -> 'v Node_state.t * bool
(** Tree-style visit: take the node's counter for the duration of one
    subquery, returning whether one was actually taken ([false] after
    the query closed, or when per-child counters are off).  Raises
    [Net.Network.Node_down] if the node is down. *)

val leave_subquery : 'v t -> 'v Node_state.t -> taken:bool -> unit
(** Release the counter taken by {!enter_subquery}, if any.  Call
    before propagating child errors, so the subquery's own counter is
    safely released first. *)

val finish : 'v t -> unit
(** Close the query and release its counters in order — children first,
    root last (the root's drain is what unblocks Phase 2, so it must be
    the final one to go).  Runs on direct references, not network
    calls: the decrements must reach child nodes even if the root's
    node has died. *)

val complete : 'v t -> values:(int * string * 'v option) list -> 'v result
(** Success path: {!finish}, count the query against the root node,
    emit the completion trace, build the result. *)

val index : 'v Node_state.t -> 'v Vindex.Index.t
(** The node's secondary index.  Raises [Invalid_argument] if the cluster
    carries none ([Cluster.create] without [~index]). *)

val probe_index :
  'v t -> 'v Node_state.t -> lo:string -> hi:string -> (string * 'v) list
(** Probe the node's secondary index ({!index}) for attributes in
    [\[lo, hi\]] at the query's pin — the one index read of both the flat
    and the tree executor.  Under the [Index_skip_visibility] mutant the
    probe runs at [max_int], serving each key's newest entry. *)

val on_error : 'v t -> exn -> 'a
(** Crash path: release what counters we can ({!finish}, errors
    swallowed) and re-raise [e]. *)
