(** Reproduction of the paper's Figure 1 — the time diagram of version
    advancement.

    The figure's claim: Phase 1 (switching updates to [v+2]) lasts until the
    longest update transaction that was active in [v+1] at advancement start
    finishes; Phase 2 (switching queries to [v+1]) lasts until the longest
    query still reading [v] finishes; Phase 3 is garbage collection.
    Meanwhile new update transactions run in [v+2] and new queries in the
    freshly published versions, never blocked by the advancement.

    [run] stages exactly that: one long update transaction and one long
    query spanning an advancement, plus a stream of short transactions and
    queries used to verify non-interference.  With the §8 eager counter
    hand-off enabled, the long update transaction stops bounding Phase 1 as
    soon as it executes its moveToFuture. *)

type timings = {
  advancement_started : float;
  all_nodes_on_new_u : float;  (** every node switched its update version *)
  long_update_committed : float;
  phase1_complete : float;
  all_nodes_on_new_q : float;
  long_query_completed : float;
  phase2_complete : float;
  gc_complete : float;  (** every node collected the old version *)
  short_update_max_latency : float;
      (** slowest short update running concurrently with the advancement *)
  short_query_max_latency : float;
}

type result = { timings : timings; violations : string list }

val run :
  ?eager_handoff:bool ->
  ?long_query_duration:float ->
  unit ->
  result

val render : result -> string
(** ASCII time diagram plus the measured bounds. *)

val report : unit -> unit
(** Print and check the diagram without and with the §8 eager hand-off;
    exits 1 on a violation. *)
