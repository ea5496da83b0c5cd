(* The built-in scenario catalogue.

   The AVA3 scenarios follow one pattern, which [ava3] below builds:
   a small cluster on constant unit latency (so concurrent activity
   collides at integer virtual times and every collision is a scheduling
   choice), a handful of named update/query/advancement processes, a
   Serial_check.Recorder keeping the values every committed transaction
   observed and wrote, and a final advancement round that settles the
   system.  The oracles are the paper's: Invariant.check at every choice
   point, the quiescent invariants and Theorem 6.2 serializability
   (Serial_check.verify over the recorded history) at the end.

   The toy scenarios run the known-broken store in lib/check/toy.ml; the
   explorer must convict the broken variants and clear the fixed one. *)

module SC = Dbsim.Serial_check
module R = SC.Recorder

(* Drive the system to a settled state: repeat advancement until a round
   completes (a round in progress answers `Busy; a just-healed cluster
   may need a beat).  Runs inside a process at the scenario's epilogue. *)
let settle db ~coordinator =
  let rec go attempts =
    if attempts > 0 then
      match Ava3.Cluster.advance_and_wait db ~coordinator with
      | `Completed _ -> ()
      | `Busy ->
          Sim.Engine.sleep 10.0;
          go (attempts - 1)
  in
  go 8

(* The standard oracle set for an AVA3 scenario: protocol invariants at
   every choice point; at the end, quiescence itself (nothing pending or
   suspended — a stuck advancement or a leaked process is a liveness
   bug), the quiescent invariants, and Theorem 6.2 serializability of
   the recorded history. *)
let ava3_instance db recorder ~keys =
  {
    Scenario.check_step = (fun () -> Ava3.Cluster.check_invariants db);
    check_final =
      (fun () ->
        let engine = Ava3.Cluster.engine db in
        let pending = Sim.Engine.pending_events engine
        and suspended = Sim.Engine.suspended_count engine in
        let in_flight = pending > 0 || suspended > 0 in
        let stuck =
          if in_flight then
            [
              Printf.sprintf
                "not quiescent at max_time: %d events pending, %d processes \
                 suspended"
                pending suspended;
            ]
          else []
        in
        let quiescent =
          if in_flight then [] else Ava3.Cluster.check_quiescent_invariants db
        in
        stuck
        @ Ava3.Cluster.check_invariants db
        @ quiescent
        @ (SC.verify (R.history recorder db ~keys)).SC.errors);
    fingerprint = (fun () -> Fingerprint.cluster_int db);
  }

(* ---------- the AVA3 scenario builder ---------- *)

(* Service times are integral so racing processes collide at integer
   instants.  [faulty] adds the timeouts a crash scenario needs to make
   progress past a dead site. *)
let unit_cost =
  { Ava3.Config.default with read_service_time = 1.0; write_service_time = 1.0 }

let faulty = { unit_cost with rpc_timeout = 10.0; advancement_retry = 25.0 }

(* What a scenario body works with: the cluster, its recorder, and the
   extra final oracle (run before the standard set) and epilogue step it
   may set. *)
type run = {
  db : int Ava3.Cluster.t;
  recorder : R.t;
  mutable oracle : unit -> string list;
  mutable epilogue : unit -> unit;
}

let spawn r name at f =
  Sim.Engine.schedule (Ava3.Cluster.engine r.db) ~name ~delay:at f

let update r name at ~root ops =
  spawn r name at (fun () -> R.update r.recorder r.db ~root ops)

let query r name at ~root reads =
  spawn r name at (fun () -> R.query r.recorder r.db ~root reads)

let advance r name at ~coordinator =
  spawn r name at (fun () -> ignore (Ava3.Cluster.advance r.db ~coordinator))

(* [data] holds each node's initial items, so it fixes the node count,
   the recorded initial state and the keys of the final read.  [crash]
   lets the nemesis crash one site, backups included, at one of
   [at_choices] for [duration]: both are choice points.  The epilogue at
   [final]'s instant settles the system, runs the body's epilogue step,
   and reads every key from [final]'s root.  Event sequence numbers
   break ties, so the order below — load, nemesis, the body's processes,
   the epilogue — is part of every scenario's schedule space. *)
let ava3 ~name ~descr ~seed ~max_time ?(config = unit_cost) ?index ?crash
    ~data ~final:(final_at, final_root) body =
  {
    Scenario.name;
    descr;
    seed;
    max_time;
    setup =
      (fun engine ->
        let db : int Ava3.Cluster.t =
          Ava3.Cluster.create ~engine ~config ?index ~nodes:(List.length data)
            ()
        in
        List.iteri (fun node items -> Ava3.Cluster.load db ~node items) data;
        let initial =
          List.concat
            (List.mapi
               (fun n items -> List.map (fun (k, v) -> ((n, k), v)) items)
               data)
        in
        let keys = List.map fst initial in
        Option.iter
          (fun (at_choices, duration) ->
            Net.Nemesis.install ~engine
              (Ava3.Cluster.nemesis_target db)
              (Net.Nemesis.choice_plan
                 ~choose:(fun ~label ~arity ->
                   Sim.Engine.branch engine ~label arity)
                 ~nodes:(Ava3.Cluster.node_count db) ~horizon:40.0 ~crashes:1
                 ~at_choices ~duration_choices:[| duration |] ()))
          crash;
        let r =
          {
            db;
            recorder = R.create initial;
            oracle = (fun () -> []);
            epilogue = ignore;
          }
        in
        body r;
        spawn r "epilogue" final_at (fun () ->
            settle db ~coordinator:0;
            r.epilogue ();
            R.query r.recorder db ~root:final_root keys);
        let inst = ava3_instance db r.recorder ~keys in
        {
          inst with
          check_final = (fun () -> r.oracle () @ inst.check_final ());
        })
  }

(* ---------- AVA3 scenarios ---------- *)

(* Two nodes, two racing read-modify-write transactions on the same item,
   a multi-node update, overlapping queries, and one advancement — the
   smallest configuration where update/update, update/query and
   update/advancement races all occur. *)
let race2 =
  ava3 ~name:"race2"
    ~descr:
      "2 nodes: racing RMWs on one item, a cross-node update, overlapping \
       queries, one advancement"
    ~seed:11L ~max_time:300.0
    ~data:[ [ ("x", 1) ]; [ ("y", 2) ] ]
    ~final:(60.0, 0)
    (fun r ->
      update r "T1" 1.0 ~root:0 [ Rmw (0, "x", 101); Put (1, "y", 11) ];
      update r "T2" 1.0 ~root:1 [ Rmw (0, "x", 202) ];
      query r "Q1" 1.0 ~root:1 [ (0, "x"); (1, "y") ];
      advance r "ADV" 2.0 ~coordinator:0;
      update r "T3" 3.0 ~root:1 [ Rmw (1, "y", 303) ];
      update r "T4" 3.0 ~root:0 [ Rmw (0, "x", 404) ];
      query r "Q2" 4.0 ~root:0 [ (1, "y"); (0, "x") ];
      update r "T5" 4.0 ~root:1 [ Rmw (0, "x", 505); Rmw (1, "y", 515) ];
      advance r "ADV2" 5.0 ~coordinator:1;
      query r "Q3" 5.0 ~root:1 [ (0, "x"); (1, "y") ])

(* Table 1 of the paper, reduced: three sites, the long transaction T
   spanning all of them, the short S and U at site 1 racing T's writes,
   a long query Q overlapping Phase 2 of the advancement, and short
   queries R and P.  Unlike Dbsim.Table1 (which asserts the exact
   outcomes of the paper's one schedule), the oracles here are generic —
   every enumerated interleaving must be serializable. *)
let table1_3site =
  ava3 ~name:"table1-3site"
    ~descr:
      "Table 1's 3-site schedule: T spanning 3 sites, S/U races, \
       advancement under a long query"
    ~seed:1L ~max_time:400.0
    ~config:{ unit_cost with read_service_time = 0.5; write_service_time = 0.5 }
    ~data:[ [ ("w", 10) ]; [ ("x", 20); ("y", 30) ]; [ ("z", 40) ] ]
    ~final:(80.0, 2)
    (fun r ->
      update r "T" 1.0 ~root:0
        [
          Put (0, "w", 11);
          Begin_at 1;
          Begin_at 2;
          Pause 3.0;
          Put (2, "z", 41);
          Rmw (1, "y", 31);
          Rmw (1, "x", 21);
        ];
      query r "R" 1.5 ~root:0 [ (0, "w") ];
      update r "S" 2.5 ~root:1 [ Pause 6.0; Rmw (1, "y", 32) ];
      advance r "ADV" 3.5 ~coordinator:2;
      update r "U" 6.0 ~root:1 [ Rmw (1, "x", 22); Pause 4.0 ];
      query r "Q" 5.0 ~root:1
        [ (1, "x"); (1, "y"); (1, "x"); (1, "y"); (1, "x"); (1, "y") ];
      query r "P" 14.0 ~root:1 [ (1, "y") ])

(* moveToFuture at both trigger sites: an update transaction in flight
   while an advancement switches its nodes' update versions — whether it
   moves forward at data-access time (its later subtransaction arrives
   after the switch) or at commit time (the version mismatch among its
   subtransactions) depends on the schedule, and both paths must leave
   the recorded history serializable. *)
let mtf_race =
  ava3 ~name:"mtf-race"
    ~descr:
      "advancement overtakes an in-flight update: moveToFuture at \
       data-access vs commit time, by schedule"
    ~seed:7L ~max_time:300.0
    ~data:[ [ ("a", 1) ]; [ ("b", 2) ] ]
    ~final:(50.0, 1)
    (fun r ->
      update r "Tspan" 1.0 ~root:0
        [ Put (0, "a", 100); Pause 4.0; Rmw (1, "b", 7) ];
      advance r "ADV" 2.0 ~coordinator:1;
      query r "Q" 3.0 ~root:0 [ (0, "a"); (1, "b") ];
      update r "Tlate" 4.0 ~root:1 [ Rmw (1, "b", 8) ])

(* Version advancement racing a coordinator crash.  The crashing node,
   crash instant and repair delay are themselves choice points
   (Nemesis.choice_plan wired to Engine.branch), so the explorer
   enumerates fault placements jointly with message schedules: the
   advancement must either complete or be resumable by the settle round,
   and the surviving history must stay serializable. *)
let crash_advance =
  ava3 ~name:"crash-advance"
    ~descr:
      "advancement vs coordinator crash: nemesis choices enumerated with \
       the schedule"
    ~seed:5L ~max_time:600.0
    ~config:{ faulty with read_service_time = 0.5; write_service_time = 0.5 }
    ~crash:([| 4.0; 6.0; 9.0 |], 12.0)
    ~data:[ [ ("x", 1) ]; [ ("y", 2) ] ]
    ~final:(80.0, 0)
    (fun r ->
      advance r "ADV" 5.0 ~coordinator:0;
      update r "T1" 3.0 ~root:0 [ Rmw (0, "x", 31) ];
      update r "T2" 7.0 ~root:1 [ Rmw (1, "y", 41) ];
      query r "Q" 8.0 ~root:1 [ (1, "y"); (0, "x") ])

(* Group commit vs crash: updates commit through the batching daemon (a
   nonzero force latency and window), and the nemesis crashes a node at a
   choice-point instant — including between a commit's enqueue and the
   batch's disk force.  The usual serializable-history oracle doubles as
   the durability oracle: an update that reported Committed to its client
   must survive the crash (its records were forced before the ack), and
   an update whose records died with the volatile log tail must have
   reported Aborted.  The [-buggy] twin acknowledges waiters at enqueue,
   before the force ([Gc_ack_early]): some schedule crashes the node
   inside the window and loses an acknowledged commit, which the
   final-state replay convicts. *)
let group_commit_crash_variant ~mutant ~name ~descr =
  ava3 ~name ~descr ~seed:17L ~max_time:600.0
    ~config:
      {
        faulty with
        disk_force_latency = 1.0;
        group_commit_window = 3.0;
        mutant;
      }
    ~crash:([| 3.0; 5.0; 7.0 |], 12.0)
    ~data:[ [ ("p", 1) ]; [ ("r", 2) ] ]
    ~final:(80.0, 1)
    (fun r ->
      update r "T1" 2.0 ~root:0 [ Rmw (0, "p", 601) ];
      update r "T2" 4.0 ~root:1 [ Rmw (1, "r", 602) ];
      query r "Q" 6.0 ~root:1 [ (1, "r"); (0, "p") ];
      advance r "ADV" 9.0 ~coordinator:1)

let group_commit_crash =
  group_commit_crash_variant ~mutant:None ~name:"group-commit-crash"
    ~descr:
      "group commit vs crash: acks only after the disk force, so no \
       schedule loses an acknowledged commit"

let group_commit_crash_buggy =
  group_commit_crash_variant ~mutant:(Some Gc_ack_early)
    ~name:"group-commit-crash-buggy"
    ~descr:
      "group commit acking at enqueue, before the force: some crash \
       schedule loses an acknowledged commit"

(* Hierarchical rounds under the explorer.  Three sites in an arity-1
   chain (coordinator 0 -> relay 1 -> leaf 2), the smallest tree where a
   site other than the coordinator holds volatile relay state: every
   phase frame for the leaf and every aggregated ack back crosses the
   relay.  [relay-crash] lets the nemesis crash any of the three sites
   mid-round — including the relay, whose frame state dies with it — and
   requires coordinator retransmission plus the stalled-round rule to
   rebuild the tree and finish the round with the usual oracles clean.
   The [-buggy] twin runs fault-free with [Relay_ack_early]: the
   relay acknowledges upward as soon as its own share is durable,
   before its subtree is covered, so the coordinator can freeze a
   version the leaf is still allowed to write.  A paused update rooted
   at the leaf keeps an old-version write in flight across the round;
   some schedule commits it into the frozen version after a query has
   already read that version, and the final-state replay convicts. *)
let relay_round_variant ~mutant ~crash ~name ~descr =
  ava3 ~name ~descr ~seed:23L ~max_time:600.0
    ~config:{ faulty with tree_arity = 1; mutant }
    ?crash:(if crash then Some ([| 5.0; 7.0; 9.0 |], 12.0) else None)
    ~data:[ [ ("a", 1) ]; [ ("b", 2) ]; [ ("c", 3) ] ]
    ~final:(80.0, 0)
    (fun r ->
      (* The leaf update opens before the round and commits inside it:
         the Pause spans the advance-u frame's trip down the chain. *)
      update r "T1" 2.0 ~root:2 [ Rmw (2, "c", 7); Pause 6.0 ];
      advance r "ADV" 4.0 ~coordinator:0;
      update r "T2" 6.0 ~root:1 [ Rmw (1, "b", 11) ];
      query r "Q" 8.0 ~root:0 [ (0, "a"); (2, "c") ])

let relay_crash =
  relay_round_variant ~mutant:None ~crash:true ~name:"relay-crash"
    ~descr:
      "hierarchical round vs relay crash: retransmission rebuilds the \
       volatile tree state on every schedule"

let relay_ack_early_buggy =
  relay_round_variant ~mutant:(Some Relay_ack_early) ~crash:false
    ~name:"relay-ack-early-buggy"
    ~descr:
      "relay acking before its subtree is covered: some schedule commits \
       an update into a version already frozen and read"

(* Primary-backup replication under the explorer.  Two partitions, one
   backup each (sites 0,1 primaries; 2,3 backups), updates and a
   cross-partition double-read query (each read routed independently, so
   one lands on a backup when it is eligible), an advancement mid-traffic,
   and a nemesis crash whose victim and instant are choice points —
   including each primary, which forces a backup promotion mid-round and,
   later, the deposed primary's rejoin-and-resync.  [backup-promotion]
   must be clean on every schedule: the catch-up gate means no
   acknowledged commit can be lost by promotion, and version-pinned
   routing means a backup read is indistinguishable from a primary read.
   The [-buggy] twin runs the [Replica_ack_early] mutant: the backup
   acknowledges a shipped batch on receipt and applies it only after a
   delay, so its ack no longer certifies possession.  Some schedule then
   crashes the primary inside that window and promotes a backup that
   never appended the acknowledged records (a lost acknowledged commit),
   or routes a pinned read to a backup whose advertised query version has
   outrun its applied data (a stale or torn read); either way the oracles
   convict. *)
let replica_variant ~mutant ~name ~descr =
  ava3 ~name ~descr ~seed:29L ~max_time:600.0
    ~config:
      { faulty with replicas = 1; replica_catchup_timeout = 8.0; mutant }
    ~crash:([| 3.0; 5.0; 8.0 |], 15.0)
    ~data:[ [ ("x", 1) ]; [ ("y", 2) ] ]
    ~final:(80.0, 0)
    (fun r ->
      update r "T1" 1.0 ~root:0 [ Rmw (0, "x", 701) ];
      advance r "ADV" 4.0 ~coordinator:0;
      update r "T2" 5.0 ~root:1 [ Rmw (1, "y", 702) ];
      (* Reads the remote partition twice: the round-robin router sends
         the two through different replicas whenever the backup is
         eligible, so disagreement between the copies at one pin is
         directly observable as a torn query. *)
      query r "Q" 6.0 ~root:1 [ (0, "x"); (0, "x") ];
      query r "Q2" 7.0 ~root:0 [ (1, "y"); (1, "y") ])

let backup_promotion =
  replica_variant ~mutant:None ~name:"backup-promotion"
    ~descr:
      "primary-backup replication vs mid-round primary crash: promotion, \
       rejoin and pinned backup reads clean on every schedule"

let replica_ack_early_buggy =
  replica_variant ~mutant:(Some Replica_ack_early)
    ~name:"replica-ack-early-buggy"
    ~descr:
      "backup acking a shipped batch before applying it: some schedule \
       loses an acknowledged commit at promotion or serves a stale \
       pinned read"

(* Replicated relay trees under the explorer.  Four partitions with one
   backup each (sites 0-3 primaries, 4-7 backups) and arity 2: the
   coordinator 0 has children 1 and 2, and partition 1's primary is an
   inner relay with leaf 3 below it.  The crashed site (the inner relay
   or the leaf) and the instant (bracketing the advance-u frame's trip
   down to the leaf and the leaf's aggregated ack back) are choice
   points.  Crashing the inner relay fails its partition over mid-round:
   the successor must take the relay's position in every record, its
   parent's, which reopens the slot, and the leaf's, whose next
   aggregated ack must climb to the successor rather than to the dead
   relay.  Crashing the leaf reopens its slot at the relay.  The crash
   runs as a process named after its victim: the nemesis's anonymous
   events would leave the victim out of the state fingerprint until the
   crash fires, and pruning would keep only the first victim explored.
   A paused update rooted at the leaf keeps an old-version write in
   flight across the round, and a query reads both partitions under the
   relay afterwards. *)
let inner_relay_failover =
  ava3 ~name:"inner-relay-failover"
    ~descr:
      "replicated arity-2 relay tree vs a mid-round crash of an inner \
       relay or its leaf: the successor takes the dead primary's place"
    ~seed:31L ~max_time:600.0
    ~config:{ faulty with tree_arity = 2; replicas = 1 }
    ~data:[ [ ("a", 1) ]; [ ("b", 2) ]; [ ("c", 3) ]; [ ("d", 4) ] ]
    ~final:(80.0, 0)
    (fun r ->
      let choose label choices =
        choices.(Sim.Engine.branch (Ava3.Cluster.engine r.db) ~label
                   (Array.length choices))
      in
      let victim = choose "crash-site" [| 1; 3 |] in
      let at = choose "crash-at" [| 5.0; 6.0; 8.0; 11.0 |] in
      spawn r (Printf.sprintf "crash-site%d" victim) at (fun () ->
          Ava3.Cluster.crash r.db ~node:victim;
          Sim.Engine.sleep 15.0;
          Ava3.Cluster.recover r.db ~node:victim);
      update r "T1" 2.0 ~root:3 [ Rmw (3, "d", 7); Pause 4.0 ];
      advance r "ADV" 4.0 ~coordinator:0;
      query r "Q" 7.0 ~root:0 [ (1, "b"); (3, "d") ])

(* Secondary index vs in-flight updates and moveToFuture.  Every select
   runs with [`Both_check]: the index probe and the full scan execute
   back to back at the serving node with no yield between them, both at
   the select's pinned version, so on a correct index they can never
   disagree — on any schedule.  The [-buggy] twin runs the
   [Index_skip_visibility] mutant: probes skip the visibility
   filter and serve each candidate's newest slot instead of the version
   at the pin.  At quiescence the two coincide (nothing newer than q
   exists), so the quiescent index↔base invariant stays clean; only a
   racing write — an update's in-place slot install or an advancement's
   moveToFuture landing mid-scan — separates them, and some schedule
   puts one inside the select's window. *)
let index_mtf_variant ~mutant ~name ~descr =
  ava3 ~name ~descr ~seed:13L ~max_time:300.0
    ~config:{ unit_cost with mutant }
    ~index:Baseline.Ava3_db.default_extract
    ~data:[ [ ("x", 100) ]; [ ("y", 200) ] ]
    ~final:(60.0, 0)
    (fun r ->
      let violations = ref [] in
      let select ~root =
        match
          Ava3.Cluster.run_select r.db ~root ~plan:`Both_check
            ~ranges:[ (0, "a000", "a999"); (1, "a000", "a999") ]
        with
        | q ->
            (* A select's rows are point observations at its pin, so they
               join the recorded history like any query's reads. *)
            R.add_query r.recorder q
        | exception
            Ava3.Query_exec.Index_mismatch { node; version; indexed; full_scan }
          ->
            violations :=
              Printf.sprintf
                "index probe diverged from the full scan at node %d, \
                 version %d: %d vs %d rows"
                node version indexed full_scan
              :: !violations
      in
      update r "T1" 1.0 ~root:0
        [ Rmw (0, "x", 113); Pause 3.0; Rmw (1, "y", 117) ];
      spawn r "SEL1" 1.0 (fun () -> select ~root:0);
      advance r "ADV" 2.0 ~coordinator:1;
      update r "T2" 3.0 ~root:1 [ Rmw (1, "y", 131) ];
      spawn r "SEL2" 4.0 (fun () -> select ~root:1);
      (* At quiescence even the buggy probe agrees with its pin — the
         twin is only convictable mid-flight. *)
      r.epilogue <- (fun () -> select ~root:0);
      r.oracle <- (fun () -> !violations))

let index_mtf_race =
  index_mtf_variant ~mutant:None ~name:"index-mtf-race"
    ~descr:
      "secondary-index selects racing updates, moveToFuture and \
       advancement: probe == full scan on every schedule"

let index_skip_mtf_buggy =
  index_mtf_variant ~mutant:(Some Index_skip_visibility)
    ~name:"index-skip-mtf-buggy"
    ~descr:
      "index probes skipping the visibility filter: some schedule catches \
       a racing write mid-scan and the probe diverges from its pin"

(* Savepoint rollback through the session layer vs lock release.  Three
   session transactions: A opens a savepoint scope, writes x, rolls the
   scope back, then increments y; B increments y then x; C increments x
   inside a scope it keeps.  A holds no lock while waiting (its scope
   lock on x is released before it requests y), so no wait cycle can
   form and every schedule must commit all three — that is the clean
   scenario's extra oracle, on top of the standard invariant and
   serializability set.  The [-buggy] twin runs the [Savepoint_leak]
   mutant: rollback erases the scope's writes
   but forgets to release its locks.  Serializability survives (2PL only
   over-locks) and a transaction's end still releases everything, so the
   leak is invisible to the other oracles — but now A waits for y while
   still holding x, and the schedule where B took y first closes the
   B->x->A->y->B cycle: the deadlock victim stays aborted (retries are
   off) and the all-committed oracle convicts. *)
let savepoint_variant ~mutant ~name ~descr =
  ava3 ~name ~descr ~seed:37L ~max_time:300.0
    ~config:
      {
        unit_cost with
        max_retries = 0 (* a deadlock abort must stay visible *);
        mutant;
      }
    ~data:[ [ ("x", 1) ]; [ ("y", 2) ] ]
    ~final:(60.0, 0)
    (fun r ->
      let sa = Session.create r.db ~seed:1L ~coordinators:[ 0 ] in
      let sb = Session.create r.db ~seed:2L ~coordinators:[ 1 ] in
      let sc = Session.create r.db ~seed:3L ~coordinators:[ 0 ] in
      (* One recorded session transaction.  [body] increments through
         [rmw c ~node item salt], which logs what it observed and wrote;
         a retry restarts the log, so only the committing attempt counts.
         Returns the transaction's name and whether it committed. *)
      let txn name at s body =
        let committed = ref false in
        spawn r name at (fun () ->
            let observed = Queue.create () in
            let rmw c ~node item salt =
              Session.rmw c ~node item (fun old ->
                  let v = SC.transform ~salt old in
                  Queue.push (SC.Rmw ((node, item), old, v)) observed;
                  v)
            in
            match
              Session.txn s (fun c ->
                  Queue.clear observed;
                  body c rmw)
            with
            | Session.Committed cm ->
                committed := true;
                r.recorder.committed <-
                  {
                    SC.t_version = cm.final_version;
                    t_finished = cm.finished_at;
                    t_commit_at = cm.participants;
                    t_ops = List.of_seq (Queue.to_seq observed);
                  }
                  :: r.recorder.committed
            | Session.Failed _ -> ());
        (name, committed)
      in
      let a =
        txn "A" 1.0 sa (fun c rmw ->
            (match
               Session.nested c (fun () ->
                   Session.write c ~node:0 "x" 999;
                   raise Session.Rollback)
             with
            | Ok () -> assert false (* the scope always raises *)
            | Error _ -> ());
            rmw c ~node:1 "y" 801)
      in
      let b =
        txn "B" 1.0 sb (fun c rmw ->
            rmw c ~node:1 "y" 802;
            Session.pause c 2.0;
            rmw c ~node:0 "x" 803)
      in
      let c =
        txn "C" 2.0 sc (fun c rmw ->
            match Session.nested c (fun () -> rmw c ~node:0 "x" 805) with
            | Ok () | Error _ -> ())
      in
      advance r "ADV" 3.0 ~coordinator:0;
      query r "Q" 4.0 ~root:1 [ (0, "x"); (1, "y") ];
      r.oracle <-
        (fun () ->
          List.filter_map
            (fun (name, committed) ->
              if !committed then None
              else
                Some
                  (Printf.sprintf
                     "session transaction %s did not commit: a \
                      deadlock-free workload deadlocked (savepoint \
                      rollback kept the scope's locks?)"
                     name))
            [ a; b; c ]))

let savepoint_rollback =
  savepoint_variant ~mutant:None ~name:"savepoint-rollback"
    ~descr:
      "session savepoint scopes rolling back under contention: scope locks \
       release, so the deadlock-free workload commits on every schedule"

let savepoint_leak_buggy =
  savepoint_variant ~mutant:(Some Savepoint_leak)
    ~name:"savepoint-leak-buggy"
    ~descr:
      "savepoint rollback forgetting to release the scope's locks: some \
       schedule closes a wait cycle and a deadlock-free workload aborts"

(* One generated DSL program under the third interpreter.  [Session.Dsl.gen]
   is deterministic in its rng, so the program built from seed 77 here is
   the same value the stress driver ([--sessions]) and the E15 harness
   run from the same generator seed — only [choose] differs.  Here every
   [choice] is resolved by {!Session.Dsl.explorer_choose}, i.e. routed
   through {!Sim.Engine.branch} as a first-class exploration decision,
   and the program races an advancement round.  The extra oracle is
   completeness: on every schedule the program must run to the end with
   each transaction committed (within the session retry budget) and no
   query failed — a wedged or silently-dropped program is a bug even
   when the store invariants hold. *)
let session_dsl =
  {
    Scenario.name = "session-dsl";
    descr =
      "a generated Session.Dsl program (same generator seed as stress \
       --sessions / E15) with its choice points explored: every schedule \
       must complete and commit all of it";
    seed = 77L;
    max_time = 400.0;
    setup =
      (fun engine ->
        let config =
          { unit_cost with max_retries = 2; retry_backoff_base = 1.0 }
        in
        let db : int Ava3.Cluster.t =
          Ava3.Cluster.create ~engine ~config ~nodes:2 ()
        in
        (* Preload the generator's key namespace so reads and deletes
           touch live items from the first transaction. *)
        for node = 0 to 1 do
          Ava3.Cluster.load db ~node
            (List.init 3 (fun i -> (Session.Dsl.gen_key ~node i, i)))
        done;
        let grng = Sim.Rng.create 77L in
        let pa = Session.Dsl.gen ~rng:grng ~nodes:2 ~keys_per_node:3 ~txns:1 in
        let pb = Session.Dsl.gen ~rng:grng ~nodes:2 ~keys_per_node:3 ~txns:1 in
        let prog =
          Session.Dsl.(
            choice ~label:"dsl-order" [ seq [ pa; pb ]; seq [ pb; pa ] ])
        in
        let s = Session.create db ~seed:5L ~coordinators:[ 0; 1 ] in
        let summary = ref None in
        Sim.Engine.schedule engine ~name:"DSL" ~delay:1.0 (fun () ->
            summary :=
              Some
                (Session.Dsl.run ~choose:(Session.Dsl.explorer_choose s) s
                   prog));
        Sim.Engine.schedule engine ~name:"ADV" ~delay:3.0 (fun () ->
            ignore (Ava3.Cluster.advance db ~coordinator:0));
        Sim.Engine.schedule engine ~name:"epilogue" ~delay:150.0 (fun () ->
            settle db ~coordinator:0);
        let inst = ava3_instance db (R.create []) ~keys:[] in
        {
          inst with
          Scenario.check_final =
            (fun () ->
              (match !summary with
              | None -> [ "the DSL program did not run to completion" ]
              | Some (sum : Session.Dsl.summary) ->
                  (if sum.failed > 0 then
                     [
                       Printf.sprintf
                         "%d DSL transaction(s) failed within the retry \
                          budget"
                         sum.failed;
                     ]
                   else [])
                  @ (if sum.query_failures > 0 then
                       [
                         Printf.sprintf "%d DSL query(ies) failed"
                           sum.query_failures;
                       ]
                     else [])
                  @
                  if sum.committed = 0 then
                    [ "no DSL transaction committed" ]
                  else [])
              @ inst.Scenario.check_final ());
        })
  }

(* ---------- the multicore backend (Mcore_sim) ---------- *)

module MB = Mcore_sim.Backend

(* Two sites holding x and y, and two logical domains: [client] and an
   advancer running two rounds, both Mcore_sim processes, so every
   atomic step of either is a scheduling choice.  [client] gets the
   backend and a function recording a violation; its queries' collected-
   under-pin guard raises out of [run_query], which the domain records
   as a violation.  At the end, each domain must have finished, nothing
   may be left in flight, and the backend must pass its quiescence
   check; [final] adds the scenario's own checks. *)
let mcore ~name ~descr ~seed ?skip_pin_recheck ~client ~final () =
  {
    Scenario.name;
    descr;
    seed;
    max_time = 10.0;
    setup =
      (fun engine ->
        let b : int MB.t = MB.create ?skip_pin_recheck ~sites:2 () in
        MB.load b ~site:0 [ ("x", 0) ];
        MB.load b ~site:1 [ ("y", 0) ];
        let errors = ref [] and finished = ref 0 in
        let fail msg = errors := msg :: !errors in
        let domain body () =
          (try body () with Invalid_argument msg -> fail msg);
          incr finished
        in
        let advancer () =
          let w = MB.worker b in
          for _ = 1 to 2 do
            ignore (MB.advance w ~coordinator:0 : [ `Busy | `Completed of int ])
          done
        in
        let run =
          Mcore_sim.spawn engine
            [ ("client", domain (client b fail)); ("ADV", domain advancer) ]
        in
        {
          Scenario.check_step = (fun () -> []);
          check_final =
            (fun () ->
              let pending = Sim.Engine.pending_events engine
              and suspended = Sim.Engine.suspended_count engine in
              List.rev !errors
              @ (if !finished = 2 && pending = 0 && suspended = 0 then
                   MB.check_quiescent b @ final b
                 else
                   [
                     Printf.sprintf
                       "not quiescent: %d of 2 domains finished, %d events \
                        pending, %d processes suspended"
                       !finished pending suspended;
                   ]));
          fingerprint = (fun () -> Mcore_sim.fingerprint run b ~sites:2 engine);
        })
  }

(* Two two-site queries, one rooted at each site, against two rounds.
   Each query's pin must survive the rounds it overlaps. *)
let mcore_queries ?skip_pin_recheck ~name ~descr () =
  mcore ~name ~descr ~seed:31L ?skip_pin_recheck
    ~client:(fun b _fail () ->
      let w = MB.worker b in
      ignore (MB.run_query w ~root:0 ~reads:[ (0, "x"); (1, "y") ]);
      ignore (MB.run_query w ~root:1 ~reads:[ (1, "y"); (0, "x") ]))
    ~final:(fun _ -> [])
    ()

let mcore_query_vs_advance =
  mcore_queries ~name:"mcore-query-vs-advance"
    ~descr:
      "Mcore.Backend, 2 sites, 2 logical domains: two-site queries against \
       two advancement rounds, every atomic step a choice point"
    ()

let mcore_skip_pin_recheck_buggy =
  mcore_queries ~skip_pin_recheck:true ~name:"mcore-skip-pin-recheck-buggy"
    ~descr:
      "Mcore.Backend whose query begin step never re-reads q: some schedule \
       fits a whole round between the read and the bump and collects the \
       pinned version"
    ()

(* Two updates writing x at site 0 and y at site 1, the first rooted at
   each site, against two rounds.  Update k reads the x update k-1 wrote
   and writes k to both keys.  Commit exactly once: each update commits
   on its first call and reads its predecessor's value, the merged
   metrics count two commits, and both sites end with the second
   update's value at one version. *)
let mcore_update_vs_advance =
  mcore ~name:"mcore-update-vs-advance"
    ~descr:
      "Mcore.Backend, 2 sites, 2 logical domains: two-key updates against \
       two advancement rounds, every atomic step a choice point"
    ~seed:37L
    ~client:(fun b fail () ->
      let w = MB.worker b in
      for k = 1 to 2 do
        match
          MB.run_update w ~root:(k - 1)
            ~ops:
              [ (0, Mcore.Backend.Read "x"); (0, Write ("x", k));
                (1, Write ("y", k)) ]
        with
        | Mcore.Backend.Committed { reads = [ ("x", Some prev) ]; _ }
          when prev = k - 1 ->
            ()
        | Committed _ ->
            fail (Printf.sprintf "update %d missed x = %d" k (k - 1))
        | Aborted _ -> fail (Printf.sprintf "update %d aborted" k)
      done)
    ~final:(fun b ->
      let latest site key =
        let st = MB.store (MB.site b site) in
        (Mcore.Mstore.max_version st key, Mcore.Mstore.read_le st key max_int)
      in
      let (vx, x), (vy, y) = (latest 0 "x", latest 1 "y") in
      let commits = Sim.Metrics.total_commits (MB.metrics b) in
      (if commits = 2 then []
       else [ Printf.sprintf "%d commits recorded for 2 updates" commits ])
      @
      if x = Some 2 && y = Some 2 && vx = vy then []
      else [ "x and y do not both hold the second update at one version" ])
    ()

(* ---------- toy scenarios (explorer self-validation) ---------- *)

(* A two-item commit racing a two-item query on the toy store.  In buggy
   mode the commit ignores reader pins, so some interleaving lands the
   install between the query's two reads — a torn snapshot the final
   oracle flags.  The correct mode (pins respected) must be clean on
   every interleaving.  The default schedule is clean in both modes: the
   bug is only reachable by exploration, which is the point. *)
let toy_rw ~buggy ~name ~descr =
  {
    Scenario.name;
    descr;
    seed = 3L;
    max_time = 50.0;
    setup =
      (fun engine ->
        let t = Toy.create ~engine ~buggy ~write_time:1.0 () in
        Toy.load t [ ("x", 0); ("y", 0) ];
        let snapshots = ref [] in
        Sim.Engine.schedule engine ~name:"writer" ~delay:1.0 (fun () ->
            Toy.put_all t [ ("x", 1); ("y", 1) ]);
        Sim.Engine.schedule engine ~name:"reader" ~delay:1.0 (fun () ->
            snapshots := Toy.query t ~read_time:1.0 [ "x"; "y" ] :: !snapshots);
        {
          Scenario.check_step = (fun () -> []);
          check_final =
            (fun () ->
              List.concat_map
                (function
                  | [ ("x", Some x); ("y", Some y) ] ->
                      if x = y then []
                      else
                        [
                          Printf.sprintf
                            "torn snapshot: read x=%d y=%d from a store \
                             where x and y only ever change together"
                            x y;
                        ]
                  | _ -> [ "query returned an unexpected shape" ])
                !snapshots);
          fingerprint = (fun () -> Toy.fingerprint t);
        })
  }

let toy_torn =
  toy_rw ~buggy:true ~name:"toy-torn"
    ~descr:
      "toy store, commit ignores reader pins: some schedule tears a query \
       snapshot"

let toy_safe =
  toy_rw ~buggy:false ~name:"toy-safe"
    ~descr:
      "toy store, pins respected: every schedule must yield a consistent \
       snapshot"

(* Two increments of one counter, each written as observe / think /
   install.  Serially the counter ends at 2; the interleaving that lets
   the second writer observe before the first installs loses an update.
   The default schedule is the serial one.  [toy-rmw-safe] is the same
   program with atomic read-modify-writes — clean on every schedule. *)
let toy_lost_update_variant ~atomic ~name ~descr =
  {
    Scenario.name;
    descr;
    seed = 9L;
    max_time = 50.0;
    setup =
      (fun engine ->
        let t = Toy.create ~engine ~buggy:true () in
        Toy.load t [ ("c", 0) ];
        let incr_split think () =
          let v = Option.value ~default:0 (Toy.get t "c") in
          Sim.Engine.sleep think;
          Toy.put_all t [ ("c", v + 1) ]
        in
        let incr_atomic () =
          ignore (Toy.rmw t "c" (fun v -> Option.value ~default:0 v + 1))
        in
        (* w1 observes at t=1 and installs at t=2; w2 starts at t=1.5
           and acts at t=2: the t=2 tie decides whether w2 sees w1's
           install.  In split mode the wrong order loses an update. *)
        Sim.Engine.schedule engine ~name:"w1" ~delay:1.0 (fun () ->
            if atomic then begin
              Sim.Engine.sleep 1.0;
              incr_atomic ()
            end
            else incr_split 1.0 ());
        Sim.Engine.schedule engine ~name:"w2" ~delay:1.5 (fun () ->
            if atomic then begin
              Sim.Engine.sleep 0.5;
              incr_atomic ()
            end
            else begin
              Sim.Engine.sleep 0.5;
              incr_split 0.5 ()
            end);
        {
          Scenario.check_step = (fun () -> []);
          check_final =
            (fun () ->
              match Toy.get t "c" with
              | Some 2 -> []
              | v ->
                  [
                    Printf.sprintf
                      "lost update: counter is %s after two committed \
                       increments (expected 2)"
                      (match v with
                      | None -> "absent"
                      | Some v -> string_of_int v);
                  ]);
          fingerprint = (fun () -> Toy.fingerprint t);
        })
  }

let toy_lost_update =
  toy_lost_update_variant ~atomic:false ~name:"toy-lost-update"
    ~descr:
      "toy store, observe/think/install increments: some schedule loses an \
       update"

let toy_rmw_safe =
  toy_lost_update_variant ~atomic:true ~name:"toy-rmw-safe"
    ~descr:
      "toy store, atomic increments: the counter reaches 2 on every \
       schedule"

(* Table order of the bench [check] suite, whose rows are in the golden
   file. *)
let must_clear =
  [ race2; mtf_race; crash_advance; group_commit_crash; table1_3site;
    relay_crash; backup_promotion; inner_relay_failover; index_mtf_race;
    savepoint_rollback; session_dsl; mcore_query_vs_advance;
    mcore_update_vs_advance; toy_safe; toy_rmw_safe ]

type entry = { buggy : Scenario.t; clean : Scenario.t; budget : int }

(* The defect windows are a few events wide, so a conviction can need a
   deeper sweep than a clean scenario's coverage pass:
   replica-ack-early-buggy takes about 2,000 schedules. *)
let registry =
  let entry buggy clean budget = { buggy; clean; budget } in
  [
    entry group_commit_crash_buggy group_commit_crash 300;
    entry relay_ack_early_buggy relay_crash 2_000;
    entry replica_ack_early_buggy backup_promotion 5_000;
    entry index_skip_mtf_buggy index_mtf_race 2_000;
    entry savepoint_leak_buggy savepoint_rollback 2_000;
    entry mcore_skip_pin_recheck_buggy mcore_query_vs_advance 500;
    entry toy_torn toy_safe 500;
    entry toy_lost_update toy_rmw_safe 500;
  ]

let all = must_clear @ List.map (fun e -> e.buggy) registry
let find name = List.find_opt (fun s -> s.Scenario.name = name) all
