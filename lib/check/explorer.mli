(** Depth-first stateless schedule exploration over {!Scenario}s.

    Each enumerated schedule is a fresh, deterministic run of the
    scenario steered by a decision vector through the engine's chooser
    hook (ready-queue ties between named processes, [Engine.branch]
    fault choices).  Past the vector's end every choice takes index 0,
    so the empty vector is the scenario's default schedule; running a
    vector discovers the arity of every choice point it passes, and each
    untried alternative becomes a new vector on a depth-first frontier.

    State fingerprints prune runs that reach an already-seen digest at a
    choice point; a violation of a step oracle, a final oracle, or
    serializability stops the search, and the offending vector is
    greedily minimized (every candidate validated by full replay) into a
    replayable counterexample. *)

type decision = { index : int; arity : int; label : string }

type stats = {
  schedules : int;
      (** distinct schedules enumerated ([completed + pruned]); every run
          has a distinct decision vector, and pruned runs still executed
          and step-checked everything up to their cut point *)
  completed : int;  (** schedules that ran to the end un-pruned *)
  pruned : int;  (** runs cut at a fingerprint already seen *)
  distinct_states : int;  (** distinct final-state fingerprints *)
  states_digest : Fingerprint.t;
      (** digest of the sorted distinct final-state fingerprints: equal
          iff the runs reached the same set of end states (up to
          collision odds) *)
  choice_points : int;  (** decisions taken, summed over runs *)
  max_depth : int;  (** longest decision vector encountered *)
  exhausted : bool;
      (** the frontier emptied within budget, no violation was found and
          [max_depth] cut off no alternative: the space is covered up to
          fingerprint-collision odds *)
  elapsed_s : float;  (** processor time spent *)
}

type violation = {
  v_decisions : decision list;  (** minimized, with labels and arities *)
  v_messages : string list;
}

type result = {
  scenario : string;
  stats : stats;
  violation : violation option;
}

val explore :
  ?budget:int ->
  ?max_depth:int ->
  ?prune:bool ->
  ?minimize_violation:bool ->
  Scenario.t ->
  result
(** Explore up to [budget] runs (schedules + pruned, default 10_000).
    [max_depth] (default 400) bounds the depth at which alternatives are
    generated — deeper choice points still execute but take the default,
    and a run that skips an alternative there clears [exhausted].
    [prune:false] disables fingerprint pruning (slower, but immune to
    digest collisions). *)

type replay_outcome = {
  r_decisions : decision list;
      (** decisions actually taken, labels included — may extend past the
          given vector (defaults) or stop short (a step violation) *)
  r_messages : string list;  (** violations; empty = clean run *)
  r_fingerprint : Fingerprint.t option;
      (** final-state digest; [None] when a step oracle cut the run *)
  r_trace : string list;
}

val replay : ?record_trace:bool -> Scenario.t -> int list -> replay_outcome
(** Re-run one decision vector (e.g. a loaded counterexample) and report
    what happened, with the engine trace unless [record_trace:false]. *)

val pp_stats : Format.formatter -> stats -> unit
