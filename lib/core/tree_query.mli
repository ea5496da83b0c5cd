(** R*-style tree execution of read-only queries (paper §2, §3.3).

    The root subquery pins the query version [V(Q) = q_root] and fans
    subqueries out down a tree; each subquery reads its items at [V(Q)]
    (lock-free), runs its children concurrently, composes their results
    with its own, sends them to its parent and commits — decrementing its
    node's query counter.  The root's counter, released last, is what keeps
    the snapshot safe from garbage collection anywhere in the system.

    Plans must visit each partition at most once.  [run] resolves every
    plan node to its partition's current primary site before it starts,
    so tree subqueries are served by primaries and follow a failover. *)

type plan = {
  at : int;
  keys : string list;  (** items to read at [at] *)
  selects : (string * string) list;
      (** attribute ranges to probe at [at] through the node's secondary
          index (requires [~index] at [Cluster.create]); results follow
          the point reads, in index order per range
          ({!Vindex.Index.probe}) *)
  children : plan list;
}

val reads : ?selects:(string * string) list -> int -> string list -> plan list -> plan
(** [reads at keys children] — plan constructor; [selects] defaults
    empty. *)

val run : 'v Cluster_state.t -> plan:plan -> 'v Query_exec.result
(** Execute the subquery tree (inside a simulation process); values arrive
    as (site, key, value) in tree preorder — each node's point reads, then
    its index-probe rows, then its children's.  Raises [Invalid_argument]
    on duplicate partitions and [Net.Network.Node_down] if a touched node
    is down. *)
