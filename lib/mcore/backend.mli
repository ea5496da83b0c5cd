(** Real-multicore execution backend for the AVA3 protocol.

    Runs the same Txn_core/Query_core protocol logic as the DES — §3.4
    update flow with its {read u; bump updateCount[u]} begin step,
    catch-up and commit-time moveToFuture, version-max commit decision;
    §3.3 query flow with the {v := q; queryCount[v]++} begin step; §3.2
    three-phase advancement — but on OCaml 5 domains against a real
    shared-memory three-version store ({!Mstore}), measuring wall-clock
    throughput instead of simulated time.

    The counter protocol takes no latch.  u, q and g are atomics; each
    {!worker} owns a private shard of every site's update and query
    counters, four slots per site indexed by version.  A begin step reads
    the version, bumps its own slot and re-reads the version, retrying if
    it moved (pin and recheck); the drain barriers of Phases 1 and 2 raise
    u or q first and then sum the slot over every worker's shard.  Latches
    remain only on the store's buckets and on the one-round-at-a-time
    advancement rule.

    Not modelled here (the DES remains the oracle for all of it): the
    network, RPC timeouts, crashes/nemesis, the WAL and recovery, and
    the optional §8/§10 protocol variants.  Item write exclusion uses
    striped try-locks with whole-transaction retry, so there are no
    lock waits and no deadlocks.

    Concurrency contract: a {!t} may be shared freely across domains.
    All transaction/query/advancement entry points go through a
    {!worker} handle, which carries the domain's private
    [Sim.Metrics] registry and counter shard (neither is safe to share
    across domains); create one worker per domain and merge with
    {!metrics} at quiesce. *)

type 'v t
type 'v site

val create :
  ?gc_renumber:bool ->
  ?skip_pin_recheck:bool ->
  sites:int ->
  unit ->
  'v t
(** A backend of [sites] sites, each starting in the paper's §3.1 state
    (all data loadable at version 0, q = 0, u = 1, g = -1) with a
    [bound = 3] store of 64 latch buckets and 1024 item-lock stripes.

    [skip_pin_recheck] is fault injection for the race harness (the
    mcore analogue of a [Config.mutant]): the query begin step reads q,
    spins 2000 times, bumps its slot and never re-reads q, so a
    concurrent advancement round can drain and collect the version it
    pins.  Correct on any single-domain schedule; convictable only by
    concurrent execution.  Never enable outside tests. *)

val site : 'v t -> int -> 'v site
val store : 'v site -> 'v Mstore.t

val u : _ site -> int
val q : _ site -> int
val g : _ site -> int

val load : 'v t -> site:int -> (string * 'v) list -> unit
(** Preload items at version 0.  Call before any concurrent work. *)

(** {1 Per-domain workers} *)

type 'v worker

val worker : 'v t -> 'v worker
(** A handle for one domain: the shared backend, a private metrics
    registry and a private shard of every site's counters.  Registered
    with the backend for good; create one per domain, not one per
    operation, and never share one across domains. *)

val backend : 'v worker -> 'v t

val metrics : _ t -> Sim.Metrics.t
(** All worker registries merged node-wise into a fresh registry.  Only
    meaningful at quiesce (no worker mid-operation).  Workers record the
    DES's {!Sim.Event} constructors; queries carry no id here, so every
    {!Sim.Event.Query_done} names query [0]. *)

(** {1 Update transactions} *)

type 'v op =
  | Read of string
  | Write of string * 'v
  | Delete of string

type 'v commit_info = {
  txn_id : int;
  final_version : int;
  reads : (string * 'v option) list;
      (** results of [Read] ops, in op order *)
  retries : int;
}

type 'v outcome =
  | Committed of 'v commit_info
  | Aborted of { txn_id : int; retries : int }
      (** item-lock contention persisted past the retry budget *)

val run_update :
  'v worker -> root:int -> ops:(int * 'v op) list -> 'v outcome
(** Execute one update transaction: [ops] are (site, op) pairs in
    program order; the root's subtransaction is registered first and
    participates in the version decision even without ops.  Item-lock
    contention retries the whole transaction up to 64 times. *)

(** {1 Queries} *)

type 'v query_result = {
  q_version : int;
  values : (int * string * 'v option) list;
}

val run_query :
  'v worker -> root:int -> reads:(int * string) list -> 'v query_result
(** One read-only query: pins the root's query version, visits child
    sites with version catch-up and child counters, releases children
    before the root.  Always-on guard: if the root has collected the
    pinned version by the time the reads are done, the query releases
    its counts and raises [Invalid_argument "query version collected
    under its pin"] — impossible unless the pin was never valid. *)

(** {1 Advancement} *)

val advance : _ worker -> coordinator:int -> [ `Busy | `Completed of int ]
(** Run one full advancement round synchronously (all three phases,
    with the DES's freshness and stalled-round initiation rules).
    [`Busy] if another round is in flight or the coordinator's local
    state says no round is needed.  The phase barriers spin-wait on the
    drained counters, so callers must not hold resources a transaction
    needs to finish. *)

(** {1 Introspection} *)

val check_quiescent : _ t -> string list
(** With nothing in flight: verify u = q+1, g >= u-3, every counter
    slot zero summed over the workers' shards, and no item lock held,
    per site.  Returns human-readable violations (empty = clean), naming
    the site and slot of any leftover count. *)

val latch_acquisitions : _ t -> int
(** Total successful latch acquisitions (the store's bucket latches;
    the counter protocol takes none) — the "latches, not locks"
    statistic. *)
