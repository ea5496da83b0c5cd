(** The three-phase asynchronous version-advancement protocol (paper §3.2).

    Any node may initiate advancement and become its coordinator; multiple
    nodes may initiate independently and the handlers keep them consistent
    (all coordinators drive the system to the same version numbers; a
    coordinator abandons its run when it learns another one is already a
    phase ahead).  All handler steps are idempotent, so the coordinator
    retransmits periodically to tolerate participant crashes.

    Phase 1 switches new update transactions to [newu] and waits (per node)
    until [updateCount(newu - 1) = 0].  Phase 2 switches new queries to
    [newq = newu - 1] and waits until [queryCount(newq - 1) = 0].  Phase 3
    garbage-collects version [newq - 1].  Nodes that missed a
    garbage-collection message catch up through the inference rule:
    receiving [advance-u(newu)] with [g < newu - 3] proves versions up to
    [newu - 3] are collectible. *)

val install : 'v Cluster_state.t -> unit
(** Wire the advancement message handlers into the cluster's network.  Must
    be called exactly once, before any messages flow. *)

val initiate :
  'v Cluster_state.t -> coordinator:int -> [ `Started of int | `Busy ]
(** Try to start a version advancement coordinated by the given node.
    [`Started newu] reports the update version the system is advancing to.
    [`Busy] means the node is already coordinating, or its local state shows
    an advancement in progress that it cannot resume.  A node whose previous
    round stalled (e.g. the old coordinator crashed) resumes that round
    instead of starting a new one. *)

val on_promotion : 'v Cluster_state.t -> old_site:int -> new_site:int -> unit
(** Failover of a partition from the crashed primary [old_site] to the
    promoted backup [new_site]: the successor takes the dead primary's
    position in every mid-flight round's relay records, and the record at
    that position's parent reopens its slot, so the successor owes its
    own phase ack. *)

val in_progress : 'v Cluster_state.t -> bool
(** True while a coordinator runs a round or a synced copy's counters
    show an unfinished advancement. *)

val await_published : 'v Cluster_state.t -> newu:int -> unit
(** Block until every live node switched its query version to [newu - 1] —
    the round's data is readable everywhere, though garbage collection may
    still be running. *)

val await_completion : 'v Cluster_state.t -> newu:int -> unit
(** Block (inside a process) until every live node has garbage-collected
    version [newu - 2], i.e. the round that advanced to [newu] fully
    finished. *)
