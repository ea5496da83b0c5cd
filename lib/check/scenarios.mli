(** The built-in scenario catalogue.

    AVA3 scenarios (oracles: protocol invariants at every choice point;
    quiescence, quiescent invariants and Theorem 6.2 serializability at
    the end):
    - [race2] — 2 nodes, racing RMWs on one item, a cross-node update,
      overlapping queries, one advancement;
    - [table1-3site] — the paper's Table 1 execution shape on 3 sites,
      with generic oracles instead of Table 1's literal outcomes;
    - [mtf-race] — an advancement overtaking an in-flight multi-node
      update, forcing moveToFuture at data-access or commit time
      depending on the schedule;
    - [crash-advance] — advancement racing a coordinator crash, the
      nemesis's node/time choices enumerated with the schedule;
    - [group-commit-crash] (must clear) / [group-commit-crash-buggy]
      (must convict) — commits through the group-commit daemon racing a
      node crash placed by the nemesis, including between a commit's
      enqueue and the batch's disk force.  The buggy twin acknowledges
      before the force ({!Ava3.Config.Gc_ack_early}), so some schedule
      loses an acknowledged commit;
    - [relay-crash] (must clear) / [relay-ack-early-buggy] (must convict)
      — a hierarchical round on an arity-1 chain (coordinator, relay,
      leaf).  The clean one lets the nemesis crash any site mid-round
      and requires retransmission to rebuild the volatile relay state;
      the buggy twin runs {!Ava3.Config.Relay_ack_early} so the relay
      acknowledges before its subtree is covered, and some schedule
      commits a leaf update into a version already frozen and read;
    - [backup-promotion] (must clear) / [replica-ack-early-buggy] (must
      convict) — per-partition primary-backup replication with a nemesis
      crash placed by choice points, including each primary mid-round
      (promotion, rejoin, pinned backup reads).  The buggy twin runs
      {!Ava3.Config.Replica_ack_early} so a backup acknowledges shipped
      records before applying them, and some schedule loses an
      acknowledged commit at promotion or serves a stale pinned read;
    - [index-mtf-race] (must clear) / [index-skip-mtf-buggy] (must
      convict) — secondary-index selects under [`Both_check] racing
      updates, moveToFuture and advancement.  The buggy twin runs
      {!Ava3.Config.Index_skip_visibility} so probes serve each
      candidate's newest slot instead of the pinned version; at
      quiescence the two coincide, but some schedule catches a racing
      write mid-scan and the probe diverges from the back-to-back full
      scan;
    - [savepoint-rollback] (must clear) / [savepoint-leak-buggy] (must
      convict) — session-layer savepoint scopes ({!Session.nested})
      rolling back under lock contention, arranged so the workload is
      deadlock-free exactly when rollback releases the scope's locks.
      The buggy twin runs {!Ava3.Config.Savepoint_leak} (rollback
      keeps the locks): serializability survives — 2PL only over-locks —
      but some schedule closes a wait cycle and the
      all-transactions-committed oracle convicts;
    - [session-dsl] (must clear) — a {!Session.Dsl.gen} program (the
      same deterministic generator the stress driver's [--sessions] mode
      and the E15 experiment run) interpreted through a session with
      {!Session.Dsl.explorer_choose}, so the program's [choice] points
      are first-class exploration decisions.  Extra oracle:
      completeness — on every schedule the program finishes with all
      transactions committed and no query failed.

    Multicore-backend scenarios ({!Mcore_sim}: {!Mcore.Backend} with
    every atomic step of its 2 logical domains a choice point, on 2
    sites; oracles: [run_query]'s collected-under-pin guard, every domain
    finished, [Backend.check_quiescent], and commit exactly once for
    updates):
    - [mcore-query-vs-advance] (must clear) / [mcore-skip-pin-recheck-buggy]
      (must convict) — two two-site queries against two advancement
      rounds.  The buggy twin's query begin step never re-reads q, so
      some schedule runs a whole round between its read and its bump and
      the guard raises;
    - [mcore-update-vs-advance] (must clear) — two updates, each reading
      x and writing x and y, against two rounds.

    Toy scenarios (explorer self-validation on a deliberately broken
    store, {!Toy}):
    - [toy-torn] (must convict) / [toy-safe] (must clear) — a pin-ignoring
      vs pin-respecting multi-item commit racing a snapshot query;
    - [toy-lost-update] (must convict) / [toy-rmw-safe] (must clear) —
      split observe/think/install increments vs atomic ones. *)

val race2 : Scenario.t
val group_commit_crash : Scenario.t
val savepoint_rollback : Scenario.t
val session_dsl : Scenario.t
val toy_torn : Scenario.t
val toy_safe : Scenario.t
val toy_lost_update : Scenario.t
val toy_rmw_safe : Scenario.t

val must_clear : Scenario.t list
(** Every scenario that must explore without a violation: the AVA3
    scenarios and the clean toys, in the row order of the bench [check]
    table.  Includes every registry entry's [clean] twin. *)

(** One deliberately broken twin: [buggy] must be convicted within
    [budget] schedules, and [clean], the same scenario without the bug,
    must explore without a violation. *)
type entry = { buggy : Scenario.t; clean : Scenario.t; budget : int }

val registry : entry list
(** One entry per {!Ava3.Config.mutant} constructor, the multicore
    backend's [skip_pin_recheck] and the two toy pairs.  Adding a mutant means adding its entry here (see
    CHECKING.md, "Mutants"). *)

val all : Scenario.t list
(** {!must_clear} followed by every registry entry's [buggy] scenario. *)

val find : string -> Scenario.t option
