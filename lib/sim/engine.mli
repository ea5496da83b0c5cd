(** Deterministic discrete-event simulation engine.

    Processes are ordinary OCaml functions run under an effect handler, so
    protocol code is written in direct, blocking style ([Engine.sleep],
    [Condition.await], lock acquisition) while the engine interleaves
    processes on a virtual clock.  Runs are fully deterministic: events are
    ordered by [(time, insertion sequence)] and all randomness flows through
    the engine's seeded {!Rng}.

    Functions documented as usable "inside a process" perform effects and
    must be called from code (transitively) started by {!spawn} or
    {!schedule}; calling them elsewhere raises [Not_in_process]. *)

type t

(** {1 Scheduling choice points}

    A fully deterministic engine orders simultaneous events by insertion
    sequence.  That tie-break (and any {!branch} call) can instead be
    delegated to an external {e chooser} — the hook the model checker in
    [lib/check] uses to enumerate alternative schedules.  A [Tie] offers
    the distinct scheduling alternatives among the events ready at the
    current instant: one per named process (a process's own events stay in
    program order — permuting them is never a real choice, which is the
    commutative-step reduction), plus one per anonymous event.  A [Branch]
    is a labelled n-way decision requested explicitly through {!branch}
    (e.g. enumerated nemesis faults). *)

type choice_point =
  | Tie of { labels : string option array }
      (** Ready-queue tie: pick the index of the alternative to run.  Each
          label is the name of the process owning that alternative (or
          [None] for an anonymous event). *)
  | Branch of { label : string; arity : int }
      (** Explicit decision: pick a value in [\[0, arity)]. *)

type chooser = choice_point -> int

exception Not_in_process
(** Raised when an effectful operation ([sleep], [suspend], [current]) is
    performed outside any simulation process. *)

exception Deadlocked of string
(** Raised by {!run} when [run_until_quiescent] detects that processes are
    still suspended but no future event can wake them. *)

val create : ?seed:int64 -> ?trace:bool -> ?trace_capacity:int -> unit -> t
(** Fresh engine with virtual time 0.  [trace] enables event recording
    (default true); [trace_capacity] bounds the trace to the most recent
    entries (default unbounded) — see {!Trace.create}.  Exploration
    harnesses that create millions of engines should disable or bound the
    trace so dead runs do not accumulate event memory. *)

val set_chooser : t -> chooser option -> unit
(** Install (or remove, with [None]) the scheduling chooser.  While
    installed, every ready-queue tie among ≥ 2 alternatives and every
    {!branch} call is routed through it.  Out-of-range answers fall back
    to alternative 0.  With no chooser the engine behaves exactly as
    before: ties resolve by insertion sequence, branches take 0. *)

val branch : t -> label:string -> int -> int
(** [branch t ~label arity] is a controlled n-way decision: the installed
    chooser picks a value in [\[0, arity)]; without a chooser the result
    is [0].  Usable anywhere (not only inside a process).  Components with
    genuinely nondeterministic decisions (which node a fault hits, when a
    retry fires) route them through here so a model checker can enumerate
    them; [label] identifies the decision in recorded choice traces. *)

val now : t -> float
(** Current virtual time. *)

val rng : t -> Rng.t
(** The engine's root random stream.  Components should usually take a
    {!Rng.split} of it. *)

val trace : t -> Trace.t

val emit : t -> Event.t -> unit
(** Record a trace entry stamped with the current virtual time (no-op when
    the trace is off). *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** Start a new process at the current time (it runs when the engine next
    reaches the event queue, after the caller yields).  When [name] is
    given and tracing is on, an {!Event.Spawn} entry is recorded and
    every trace entry emitted while the process runs (across suspensions)
    carries the name in its [process] field. *)

val schedule : t -> ?name:string -> delay:float -> (unit -> unit) -> unit
(** Start a new process after [delay] units of virtual time.  [name] acts
    as in {!spawn} (minus the spawn trace entry) and additionally labels
    the start event for the scheduling chooser. *)

val run : ?until:float -> t -> unit
(** Execute events until the queue is empty or virtual time would exceed
    [until].  An exception escaping a process aborts the run. *)

val stop : t -> unit
(** Make {!run} return after the current event completes. *)

val suspended_count : t -> int
(** Number of processes currently suspended on a {!suspend}. *)

val pending_events : t -> int

val events_executed : t -> int
(** Total events popped and executed by {!run} since creation.  Divided by
    the wall-clock time a run took, this is the simulator's events/sec —
    the throughput metric [bench engine] tracks across revisions. *)

val pending_summary : t -> (float * string option) list
(** The (time, process label) of every pending event, sorted.  A
    canonical summary of in-flight work for state fingerprinting: two
    states whose data agree but whose event queues differ (almost
    always) differ here.  Event payloads are closures and cannot be
    compared, so same-time same-label events with different effects do
    summarize identically — fingerprint users accept that imprecision. *)

(** {1 Operations usable inside a process} *)

val current : unit -> t
(** The engine running the calling process. *)

val sleep : float -> unit
(** Advance this process's virtual time by the given delay. *)

val yield : unit -> unit
(** Let other processes scheduled for the same instant run first. *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] parks the calling process and calls
    [register resume].  The process continues with value [v] when some other
    event calls [resume v].  [resume] must be called at most once. *)
