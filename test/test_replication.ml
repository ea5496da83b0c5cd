(* Replication tests: version-pinned backup reads are byte-identical to
   primary reads at the same pin (property, 10 seeds x both gc_renumber
   rules x a steady and a jittery network, plain and with a script
   through the savepoint-rollback, checkpoint and backup-restart apply
   paths), and the property convicts a backup that acknowledges before
   applying; primary-crash failover loses no acknowledged commit, tree
   updates and tree queries follow a failover to the promoted primary,
   a commit redriven after a failover stays at its participant's site,
   a primary promoted mid-round owes its own advance-u ack even
   though the dead primary had sent one (at depth one, and on a
   depth-two relay chain whether the leaf or the relay dies), and a
   backup promoted for a data-empty partition does not stall a
   partition-aware round; a partitioned backup is demoted (commits keep
   flowing) then re-syncs and re-earns its read-set membership after
   the partition heals, and a catch-up gate waits on its own partition
   only; read
   routing skips a backup that is out of sync (though reachable and
   caught up) and one whose query version trails the pin (though in
   sync); on a traced run with a failover, a demotion and backup
   reads, the registry's replication counts equal the trace's; and a
   partition whose backups are all down runs exactly as an unreplicated
   one. *)

module Cluster = Ava3.Cluster
module Cluster_state = Ava3.Cluster_state
module Node_state = Ava3.Node_state
module Update = Ava3.Update_exec
module Tree = Ava3.Tree_txn
module Tree_query = Ava3.Tree_query
module Store = Vstore.Store

let check_bool = Alcotest.(check bool)

(* {1 Pinned-read equivalence} *)

let keys p = List.init 4 (fun j -> Printf.sprintf "k%d_%d" p j)

(* Keys only the [backup_paths] script writes, loaded at version 0. *)
let script_keys p = List.init 3 (fun j -> Printf.sprintf "s%d_%d" p j)

(* Backup paths the plain workload never reaches, one per partition, each
   on its own keys so no later step repairs a backup that got it wrong:
   - partition 0: a checkpoint at the primary between transactions, so
     the backups rebuild from the shipped [Checkpoint] record;
   - partition 1: a savepoint scope that overwrites and deletes, then
     rolls back (a [Rollback] record), and a delete that commits;
   - partition 2: a backup crashes and recovers in the same epoch while a
     transaction's [Begin]/[Update] records are shipped but its [Commit]
     is not.  A concurrent commit in the partition ships them.
   Returns the list of steps that did not happen as scripted. *)
let backup_paths db =
  let engine = Cluster.engine db in
  let cs = Cluster.state db in
  let session p =
    Session.create db ~seed:(Int64.of_int (100 + p)) ~pool:1
      ~coordinators:[ p ]
  in
  let missed = ref [] in
  let miss what = missed := what :: !missed in
  let commit s ops =
    if not (Flat_txn.committed (Flat_txn.run s ops)) then
      miss "a scripted commit failed"
  in
  Sim.Engine.spawn engine (fun () ->
      let s = session 0 in
      Sim.Engine.sleep 25.0;
      commit s
        [
          Update.Write { node = 0; key = "s0_0"; value = 1 };
          Update.Delete { node = 0; key = "s0_1" };
        ];
      let rec take tries =
        if tries = 0 then miss "no checkpoint at partition 0"
        else if not (Cluster.checkpoint db ~node:0) then begin
          Sim.Engine.sleep 0.5;
          take (tries - 1)
        end
      in
      take 40);
  Sim.Engine.spawn engine (fun () ->
      let s = session 1 in
      Sim.Engine.sleep 35.0;
      match
        Session.txn s (fun c ->
            Session.write c ~node:1 "s1_0" 1;
            let scope =
              Session.nested c (fun () ->
                  Session.write c ~node:1 "s1_1" 99;
                  Session.delete c ~node:1 "s1_0";
                  raise Session.Rollback)
            in
            Session.delete c ~node:1 "s1_2";
            scope)
      with
      | Session.Committed { value = Error `Rolled_back; _ } -> ()
      | _ -> miss "savepoint transaction at partition 1");
  (* Held open past the backup's crash and recovery. *)
  Sim.Engine.spawn engine (fun () ->
      let s = session 2 in
      Sim.Engine.sleep 50.0;
      match
        Session.txn s (fun c ->
            Session.write c ~node:2 "s2_0" 7;
            Session.pause c 12.0)
      with
      | Session.Committed _ -> ()
      | Session.Failed _ -> miss "long transaction at partition 2");
  Sim.Engine.spawn engine (fun () ->
      let s = session 2 in
      Sim.Engine.sleep 52.0;
      commit s [ Update.Write { node = 2; key = "s2_1"; value = 5 } ];
      let site = (Cluster_state.backups cs 2).(0).Cluster_state.b_site in
      let log = Node_state.log (Cluster.node db site) in
      let in_flight = Wal.Recovery.in_flight_transactions log in
      if
        not
          (List.exists
             (function
               | Wal.Record.Update { txn; key = "s2_0"; _ } ->
                   List.mem txn in_flight
               | _ -> false)
             (Wal.Log.records log))
      then miss "backup of partition 2 held no shipped uncommitted update";
      Cluster.crash db ~node:site;
      Sim.Engine.sleep 3.0;
      Cluster.recover db ~node:site);
  missed

type run = {
  missed : string list;  (** scripted steps that did not happen *)
  violations : string list;  (** invariant violations *)
  mismatches : string list;  (** answers that differ from the primary's *)
  served : (string * int) list;  (** reads backups served, per shape *)
}

(* The two networks the property runs on.  [`Steady]: every message takes
   1.0, so a backup applies each shipped batch long before a query can
   pin its version.  [`Jittery]: exponential latency lets a backup's
   apply trail a pin, which is what exposes a backup that advertises a
   version before it holds the data ({!Ava3.Config.Replica_ack_early}).
   Its finite RPC timeout turns a read lost in the script's backup crash
   into a failed query; with none, the query would wait forever and hold
   its pin, and Phase 2 with it. *)
let network = function
  | `Steady -> (Net.Latency.Constant 1.0, infinity)
  | `Jittery -> (Net.Latency.Exponential { mean = 1.0; floor = 0.2 }, 50.0)

let network_name = function `Steady -> "steady" | `Jittery -> "jittery"

(* Mixed workload on 3 partitions x 2 backups: writers, cross-partition
   queries (exercising backup routing), periodic advancement, and with
   [scripted] the {!backup_paths} script.  An online probe compares
   primary and backup answers at the same pin whenever their query
   versions coincide; a final quiescent sweep requires every backup
   store to agree with its primary on every key. *)
let equivalence_run ?mutant ~net ~seed ~gc_renumber ~scripted () =
  let engine = Sim.Engine.create ~seed ~trace:false () in
  let latency, rpc_timeout = network net in
  let config =
    {
      Ava3.Config.default with
      replicas = 2;
      gc_renumber;
      replica_catchup_timeout = 10.0;
      rpc_timeout;
      mutant;
    }
  in
  let db : int Cluster.t =
    Cluster.create ~engine ~config ~latency
      ~index:Baseline.Ava3_db.default_extract ~nodes:3 ()
  in
  let cs = Cluster.state db in
  let keys p = if scripted then keys p @ script_keys p else keys p in
  for p = 0 to 2 do
    Cluster.load db ~node:p (List.map (fun k -> (k, 0)) (keys p))
  done;
  let sessions = Session.per_partition ~seed:0L db in
  let missed = if scripted then backup_paths db else ref [] in
  let mismatches = ref [] in
  let violations = ref [] in
  Sim.Engine.spawn engine (fun () ->
      for i = 1 to 40 do
        let p = i mod 3 in
        let key = Printf.sprintf "k%d_%d" p (i mod 4) in
        ignore
          (Flat_txn.run sessions.(p) [ Update.Write { node = p; key; value = i } ]
            : (int, unit) Session.outcome);
        Sim.Engine.sleep 3.0
      done);
  (* Each read shape in turn, counting the reads backups served for it.
     Right after a query returns, nothing has yielded since its counters
     held the pin, so each partition's primary still answers at that pin:
     every row must be the primary's. *)
  let served =
    List.map (fun shape -> (shape, ref 0)) [ "read"; "scan"; "select"; "join" ]
  in
  let backup_reads () = (Cluster.stats db).Cluster.backup_reads in
  let check_rows shape (r : int Ava3.Query_exec.result) =
    List.iter
      (fun (p, k, v) ->
        let pnode = Cluster_state.primary cs p in
        if Store.read_le (Node_state.store pnode) k r.version <> v then
          mismatches :=
            Printf.sprintf "seed=%Ld %s part=%d key=%s pin=%d" seed shape p k
              r.version
            :: !mismatches)
      r.values
  in
  let attrs = ("a000", "a999") in
  let parts = [ 0; 1; 2 ] in
  Sim.Engine.spawn engine (fun () ->
      let reads =
        List.concat_map (fun p -> List.map (fun k -> (p, k)) (keys p)) parts
      in
      let lo, hi = attrs in
      let ranges = List.map (fun p -> (p, lo, hi)) parts in
      let scan_ranges =
        List.map
          (fun p ->
            let ks = List.sort compare (keys p) in
            (p, List.hd ks, List.nth ks (List.length ks - 1)))
          parts
      in
      for i = 0 to 30 do
        let root = i mod 3 in
        List.iter
          (fun (shape, run) ->
            let before = backup_reads () in
            (match run () with
            | r -> check_rows shape r
            | exception
                Ava3.Query_exec.Index_mismatch { node; version; indexed; full_scan }
              ->
                mismatches :=
                  Printf.sprintf
                    "seed=%Ld %s: index %d rows vs scan %d at node %d pin=%d"
                    seed shape indexed full_scan node version
                  :: !mismatches
            | exception _ -> ());
            let n = List.assoc shape served in
            n := !n + backup_reads () - before)
          [
            ("read", fun () -> Cluster.run_query db ~root ~reads);
            ("scan", fun () -> Cluster.run_scan db ~root ~ranges:scan_ranges);
            ( "select",
              fun () -> Cluster.run_select db ~root ~plan:`Both_check ~ranges );
            ( "join",
              fun () ->
                (Cluster.run_join db ~root ~plan:`Both_check
                   ~build:(parts, lo, hi) ~probe:(parts, lo, hi))
                  .Ava3.Query_exec.join );
          ];
        Sim.Engine.sleep 4.0
      done);
  Cluster.start_periodic_advancement db ~coordinator:0 ~period:20.0 ~until:140.0;
  (* Online probe: same pin => same answer, for every key of the backup's
     partition, at any moment the backup advertises the primary's query
     version. *)
  Sim.Engine.spawn engine (fun () ->
      for _ = 1 to 28 do
        Sim.Engine.sleep 5.0;
        violations := Cluster.check_invariants db @ !violations;
        for p = 0 to 2 do
          let pnode = Cluster_state.primary cs p in
          Array.iter
            (fun b ->
              let bnode = Cluster.node db b.Cluster_state.b_site in
              if
                b.Cluster_state.b_insync && Node_state.alive bnode
                && Node_state.alive pnode
                && Node_state.q bnode = Node_state.q pnode
              then begin
                let pin = Node_state.q pnode in
                List.iter
                  (fun k ->
                    let vp = Store.read_le (Node_state.store pnode) k pin in
                    let vb = Store.read_le (Node_state.store bnode) k pin in
                    if vp <> vb then
                      mismatches :=
                        Printf.sprintf
                          "seed=%Ld renumber=%b t=%.1f part=%d site%d key=%s \
                           pin=%d"
                          seed gc_renumber (Sim.Engine.now engine) p
                          b.Cluster_state.b_site k pin
                        :: !mismatches)
                  (keys p)
              end)
            (Cluster_state.backups cs p)
        done
      done);
  (* Bounded, so a backup that never converges fails the checks below
     instead of keeping an advancement round retransmitting forever. *)
  Sim.Engine.run ~until:5000.0 engine;
  if Sim.Engine.pending_events engine > 0 then
    mismatches :=
      Printf.sprintf "seed=%Ld: not quiescent at t=5000" seed :: !mismatches;
  (* Quiescent: every backup converged to its primary's exact state. *)
  for p = 0 to 2 do
    let pnode = Cluster_state.primary cs p in
    Array.iter
      (fun b ->
        let bnode = Cluster.node db b.Cluster_state.b_site in
        if Node_state.q bnode <> Node_state.q pnode then
          mismatches :=
            Printf.sprintf "seed=%Ld: site%d final q %d <> primary q %d" seed
              b.Cluster_state.b_site (Node_state.q bnode) (Node_state.q pnode)
            :: !mismatches;
        List.iter
          (fun k ->
            let pin = Node_state.q pnode in
            if
              Store.read_le (Node_state.store pnode) k pin
              <> Store.read_le (Node_state.store bnode) k pin
            then
              mismatches :=
                Printf.sprintf "seed=%Ld: site%d final state differs on %s" seed
                  b.Cluster_state.b_site k
                :: !mismatches)
          (keys p))
      (Cluster_state.backups cs p)
  done;
  {
    missed = !missed;
    violations = !violations;
    mismatches = !mismatches;
    served = List.map (fun (shape, n) -> (shape, !n)) served;
  }

let test_equivalence_across_seeds () =
  let served = Hashtbl.create 4 in
  List.iter
    (fun (net, gc_renumber, scripted) ->
      for seed = 1 to 10 do
        let r =
          equivalence_run ~net ~seed:(Int64.of_int seed) ~gc_renumber
            ~scripted ()
        in
        let what = Printf.sprintf "seed %d, %s" seed (network_name net) in
        Alcotest.(check (list string))
          (Printf.sprintf "backup paths scripted (%s)" what)
          [] r.missed;
        Alcotest.(check (list string))
          (Printf.sprintf "no invariant violations (%s)" what)
          [] r.violations;
        Alcotest.(check (list string))
          (Printf.sprintf "pinned reads identical (%s)" what)
          [] r.mismatches;
        List.iter
          (fun (shape, n) ->
            Hashtbl.replace served shape
              (n + Option.value ~default:0 (Hashtbl.find_opt served shape)))
          r.served
      done)
    (List.concat_map
       (fun net ->
         [
           (net, false, false); (net, true, false); (net, false, true);
           (net, true, true);
         ])
       [ `Steady; `Jittery ]);
  (* Routing must actually spread every read shape over backups, or the
     property above tested nothing for it. *)
  List.iter
    (fun shape ->
      check_bool
        (Printf.sprintf "some %s reads served by backups" shape)
        true
        (Hashtbl.find served shape > 0))
    [ "read"; "scan"; "select"; "join" ]

(* The property has teeth: on the jittery network its plain runs convict a
   backup that acknowledges and advertises a shipped batch's versions
   before applying its data, under either GC rule. *)
let test_equivalence_convicts_ack_early () =
  List.iter
    (fun gc_renumber ->
      let convicted =
        List.filter
          (fun seed ->
            (equivalence_run ~mutant:Ava3.Config.Replica_ack_early
               ~net:`Jittery ~seed:(Int64.of_int seed) ~gc_renumber
               ~scripted:false ())
              .mismatches <> [])
          (List.init 10 succ)
      in
      check_bool
        (Printf.sprintf "Replica_ack_early convicted (renumber %b)" gc_renumber)
        true (convicted <> []))
    [ false; true ]

(* {1 Failover: no acknowledged commit is lost} *)

let test_failover_no_acked_loss () =
  let engine = Sim.Engine.create ~seed:21L ~trace:false () in
  let config =
    { Ava3.Config.default with replicas = 2; replica_catchup_timeout = 8.0 }
  in
  let db : int Cluster.t = Cluster.create ~engine ~config ~nodes:2 () in
  let cs = Cluster.state db in
  Cluster.load db ~node:0 [ ("seed0", 0) ];
  Cluster.load db ~node:1 [ ("seed1", 0) ];
  let acked = ref [] in
  let after_crash = ref 0 in
  Sim.Engine.spawn engine (fun () ->
      for i = 1 to 30 do
        let key = Printf.sprintf "w%d" i in
        (match
           Cluster.run_update db ~root:0
             ~ops:[ Update.Write { node = 0; key; value = i } ]
         with
        | Update.Committed _ ->
            acked := (key, i) :: !acked;
            if Sim.Engine.now engine > 25.0 then incr after_crash
        | Update.Aborted _ | Update.Root_down _ -> ());
        Sim.Engine.sleep 2.0
      done);
  Sim.Engine.spawn engine (fun () ->
      Sim.Engine.sleep 25.0;
      Cluster.crash db ~node:0);
  Sim.Engine.run engine;
  let s = Cluster.stats db in
  check_bool "a backup was promoted" true (s.Cluster.replica_promotions >= 1);
  let np = Cluster_state.primary cs 0 in
  check_bool "partition 0 has a new primary" true (Node_state.id np <> 0);
  check_bool "commits continued after failover" true (!after_crash > 0);
  check_bool "some commits were acknowledged before the crash" true
    (List.exists (fun (_, i) -> i <= 10) !acked);
  (* Every acknowledged commit — before or after the failover — is
     readable at the new primary. *)
  List.iter
    (fun (key, v) ->
      Alcotest.(check (option int))
        (Printf.sprintf "acked %s survived failover" key)
        (Some v)
        (Store.read_le (Node_state.store np) key (Node_state.u np)))
    !acked

(* {1 The metrics registry agrees with the trace} *)

(* A traced replicated run with a primary crash, a partitioned backup and
   steady reads: each replication count in {!Cluster.stats} must equal the
   number of trace entries of its event, and each must be non-zero, so
   the comparison checks something. *)
let test_registry_matches_trace () =
  let engine = Sim.Engine.create ~seed:21L ~trace:true () in
  let config =
    {
      Ava3.Config.default with
      replicas = 2;
      replica_catchup_timeout = 8.0;
      rpc_timeout = 50.0;
    }
  in
  let db : int Cluster.t = Cluster.create ~engine ~config ~nodes:2 () in
  let cs = Cluster.state db in
  let net = Cluster.network db in
  Cluster.load db ~node:0 [ ("a", 0) ];
  Cluster.load db ~node:1 [ ("b", 0) ];
  Sim.Engine.spawn engine (fun () ->
      for i = 1 to 30 do
        ignore
          (Cluster.run_update db ~root:(i mod 2)
             ~ops:
               [
                 Update.Write { node = 0; key = "a"; value = i };
                 Update.Write { node = 1; key = "b"; value = i };
               ]
            : int Update.outcome);
        Sim.Engine.sleep 2.0
      done);
  Sim.Engine.spawn engine (fun () ->
      for _ = 1 to 40 do
        (try
           ignore
             (Cluster.run_query db ~root:1 ~reads:[ (0, "a"); (1, "b") ]
               : int Ava3.Query_exec.result)
         with Net.Network.Node_down _ | Net.Network.Rpc_timeout _ -> ());
        Sim.Engine.sleep 1.5
      done);
  Sim.Engine.spawn engine (fun () ->
      Sim.Engine.sleep 25.0;
      Cluster.crash db ~node:0);
  (* Cut partition 1's first backup off long enough to be demoted. *)
  let b = (Cluster_state.backups cs 1).(0).Cluster_state.b_site in
  Sim.Engine.spawn engine (fun () ->
      Sim.Engine.sleep 10.0;
      Net.Network.set_link_down net ~src:1 ~dst:b true;
      Net.Network.set_link_down net ~src:b ~dst:1 true;
      Sim.Engine.sleep 20.0;
      Net.Network.set_link_down net ~src:1 ~dst:b false;
      Net.Network.set_link_down net ~src:b ~dst:1 false);
  Sim.Engine.run engine;
  let s = Cluster.stats db in
  let traced pred =
    List.length
      (List.filter
         (fun e -> pred e.Sim.Trace.event)
         (Sim.Trace.entries (Sim.Engine.trace engine)))
  in
  List.iter
    (fun (what, registry, pred) ->
      check_bool (what ^ " happened") true (registry > 0);
      Alcotest.(check int) (what ^ " match the trace") (traced pred) registry)
    [
      ( "backup reads",
        s.Cluster.backup_reads,
        function Sim.Event.Backup_read _ -> true | _ -> false );
      ( "demotions",
        s.Cluster.replica_demotions,
        function Sim.Event.Backup_demoted _ -> true | _ -> false );
      ( "promotions",
        s.Cluster.replica_promotions,
        function Sim.Event.Promoted _ -> true | _ -> false );
    ]

(* {1 Failover: the promoted primary owes its own phase ack} *)

(* The same rule one level down, on the arity-1 chain coordinator 0 ->
   relay 1 -> leaf 2, one backup per partition (sites 3, 4 and 5).  The
   link [cut] holds one aggregated advance-u ack back until 5.0 after
   [crash] runs at t = 10, so the round is still open at the failover.
   Returns how many messages the link [watch] had carried when Phase 1
   ended, sampled when the coordinator's query version moves, and fails
   unless the round completes by t = 1000. *)
let chain_failover ~cut:(src, dst) ~crash ~watch:(wsrc, wdst) =
  let engine = Sim.Engine.create ~seed:5L ~trace:false () in
  let config =
    {
      Ava3.Config.default with
      replicas = 1;
      tree_arity = 1;
      advancement_retry = 20.0;
    }
  in
  let db : int Cluster.t = Cluster.create ~engine ~config ~nodes:3 () in
  let cs = Cluster.state db in
  let net = Cluster.network db in
  List.iter (fun p -> Cluster.load db ~node:p [ (Printf.sprintf "k%d" p, p) ])
    [ 0; 1; 2 ];
  let at_phase1 = ref (-1) and completed = ref false in
  Sim.Engine.spawn engine (fun () ->
      Net.Network.set_link_down net ~src ~dst true;
      let newu =
        match Cluster.advance db ~coordinator:0 with
        | `Started newu -> newu
        | `Busy -> Alcotest.fail "advancement did not start"
      in
      Sim.Engine.sleep 10.0;
      crash db newu;
      Sim.Engine.sleep 5.0;
      Net.Network.set_link_down net ~src ~dst false;
      let coordinator = Cluster_state.node cs 0 in
      Sim.Condition.await_until cs.Cluster_state.state_changed ~pred:(fun () ->
          Node_state.q coordinator >= newu - 1);
      at_phase1 := Net.Network.link_count net ~src:wsrc ~dst:wdst;
      Sim.Condition.await_until cs.Cluster_state.state_changed ~pred:(fun () ->
          Node_state.g coordinator >= newu - 2);
      completed := true);
  Sim.Engine.run ~until:1000.0 engine;
  check_bool "the round completed" true !completed;
  !at_phase1

(* The advance-u round's record at [site]. *)
let round_at cs site newu =
  List.find
    (fun r -> r.Cluster_state.r_kind = `U && r.Cluster_state.r_ver = newu)
    cs.Cluster_state.relays.(site)

(* The leaf acks and crashes while the relay's aggregate is held back;
   site 5 takes over.  The relay, the leaf's parent, reopens the leaf's
   slot, and the coordinator, which has a slot for the relay only, keeps
   it as it was; the relay then waits for the successor's ack before it
   acks upward. *)
let chain_leaf_failover () =
  let crash db newu =
    let cs = Cluster.state db in
    let net = Cluster.network db in
    let coordinator () =
      (Option.get cs.Cluster_state.coords.(0)).Cluster_state.c_round
        .Cluster_state.r_child_acks
    in
    check_bool "the leaf acknowledged advance-u" true
      (Net.Network.link_count net ~src:2 ~dst:1 > 0);
    check_bool "the relay settled the leaf's slot" true
      ((round_at cs 1 newu).Cluster_state.r_child_acks = [| true |]);
    let before = Array.copy (coordinator ()) in
    Cluster.crash db ~node:2;
    let relay = round_at cs 1 newu in
    check_bool "the relay's record names the successor" true
      (relay.Cluster_state.r_sites.(2) = 5);
    check_bool "the relay reopened the leaf's slot" true
      (relay.Cluster_state.r_child_acks = [| false |]);
    check_bool "the coordinator's slots are untouched" true
      (coordinator () = before)
  in
  check_bool "the successor acked the relay before Phase 1 ended" true
    (chain_failover ~cut:(1, 0) ~crash ~watch:(5, 1) > 0)

(* The relay crashes while the leaf's aggregate to it is held back; site
   4 takes over.  The leaf's next aggregated ack goes to the successor,
   not to the dead relay, and the round completes. *)
let chain_relay_failover () =
  let crash db _newu = Cluster.crash db ~node:1 in
  check_bool "the leaf's ack reached the successor before Phase 1 ended" true
    (chain_failover ~cut:(2, 1) ~crash ~watch:(2, 4) > 0)

(* Partition 1's primary (site 1) acknowledges advance-u, then crashes
   while partition 2's ack is held back by a cut link, and its backup
   (site 4) is promoted.  The round must not finish Phase 1 on the dead
   primary's ack: the successor takes its slot, is re-sent the phase by
   the coordinator's retransmission, and Phase 1 completes only after it
   has acknowledged.  Samples [link_count] from site 4 to the coordinator
   at the promotion and again when the coordinator's own query version
   moves, which happens at the instant of [Phase1_done] (self-messages
   take no time, every other link at least 1.0). *)
let test_successor_owes_phase_ack () =
  let engine = Sim.Engine.create ~seed:5L ~trace:true () in
  let config =
    { Ava3.Config.default with replicas = 1; advancement_retry = 20.0 }
  in
  let db : int Cluster.t = Cluster.create ~engine ~config ~nodes:3 () in
  let cs = Cluster.state db in
  let net = Cluster.network db in
  List.iter (fun p -> Cluster.load db ~node:p [ (Printf.sprintf "k%d" p, p) ])
    [ 0; 1; 2 ];
  let successor = 4 in
  let acked_before_crash = ref false in
  let at_promotion = ref (-1) and at_phase1 = ref (-1) in
  let phase1_seen_at = ref nan in
  Sim.Engine.spawn engine (fun () ->
      Net.Network.set_link_down net ~src:2 ~dst:0 true;
      let newu =
        match Cluster.advance db ~coordinator:0 with
        | `Started newu -> newu
        | `Busy -> Alcotest.fail "advancement did not start"
      in
      Sim.Engine.sleep 10.0;
      acked_before_crash := Net.Network.link_count net ~src:1 ~dst:0 > 0;
      Cluster.crash db ~node:1;
      at_promotion := Net.Network.link_count net ~src:successor ~dst:0;
      Sim.Engine.sleep 5.0;
      Net.Network.set_link_down net ~src:2 ~dst:0 false;
      Sim.Condition.await_until cs.Cluster_state.state_changed ~pred:(fun () ->
          Node_state.q (Cluster_state.node cs 0) >= newu - 1);
      at_phase1 := Net.Network.link_count net ~src:successor ~dst:0;
      phase1_seen_at := Sim.Engine.now engine);
  Sim.Engine.run engine;
  check_bool "site 1 acknowledged advance-u before crashing" true
    !acked_before_crash;
  check_bool "site 4 took over partition 1" true
    (Cluster_state.primary_site cs 1 = successor);
  let times pred =
    List.filter_map
      (fun e -> if pred e.Sim.Trace.event then Some e.Sim.Trace.time else None)
      (Sim.Trace.entries (Sim.Engine.trace engine))
  in
  (match
     ( times (function Sim.Event.Promoted _ -> true | _ -> false),
       times (function Sim.Event.Phase1_done _ -> true | _ -> false) )
   with
  | [ promoted ], [ phase1 ] ->
      check_bool "Phase 1 ends after the promotion" true (phase1 > promoted);
      Alcotest.(check (float 0.0))
        "sampled at Phase1_done" phase1 !phase1_seen_at
  | _ -> Alcotest.fail "expected one promotion and one Phase 1");
  check_bool "the successor acked between promotion and Phase 1" true
    (!at_phase1 > !at_promotion);
  chain_leaf_failover ();
  chain_relay_failover ()

(* {1 Failover: a data-empty primary in a partition-aware round} *)

(* A data-empty partition sits in a partition-aware round's
   fire-and-forget tail, which never acknowledges.  Its primary (site 2)
   crashes while advance-u is held open by a cut link; the backup
   promoted in its place must take over the position without reopening
   its slot, or the round waits forever for an ack no tail site sends. *)
let test_empty_partition_failover_in_aware_round () =
  let engine = Sim.Engine.create ~seed:5L ~trace:false () in
  let config =
    {
      Ava3.Config.default with
      replicas = 1;
      partition_aware = true;
      advancement_retry = 20.0;
    }
  in
  let db : int Cluster.t = Cluster.create ~engine ~config ~nodes:3 () in
  let cs = Cluster.state db in
  let net = Cluster.network db in
  List.iter (fun p -> Cluster.load db ~node:p [ (Printf.sprintf "k%d" p, p) ])
    [ 0; 1 ];
  let collected = ref false in
  Sim.Engine.spawn engine (fun () ->
      Net.Network.set_link_down net ~src:1 ~dst:0 true;
      let newu =
        match Cluster.advance db ~coordinator:0 with
        | `Started newu -> newu
        | `Busy -> Alcotest.fail "advancement did not start"
      in
      Sim.Engine.sleep 10.0;
      Cluster.crash db ~node:2;
      Sim.Engine.sleep 5.0;
      Net.Network.set_link_down net ~src:1 ~dst:0 false;
      Sim.Condition.await_until cs.Cluster_state.state_changed ~pred:(fun () ->
          Node_state.g (Cluster_state.node cs 0) >= newu - 2);
      collected := true);
  Sim.Engine.run ~until:1000.0 engine;
  check_bool "site 5 took over partition 2" true
    (Cluster_state.primary_site cs 2 = 5);
  check_bool "the round completed" true !collected

(* {1 Failover: the tree executors reach the promoted primary} *)

(* Partition 0's primary (site 0) crashes and its backup is promoted.
   Tree updates and tree queries that name partition 0 must then run at
   the promoted site, before and after site 0 rejoins as a backup, and a
   plan naming partition 0 and its new site is a duplicate.  The finite
   [rpc_timeout] turns an RPC to the dead site into a failure instead of
   a hang. *)
let test_tree_executors_follow_failover () =
  let engine = Sim.Engine.create ~seed:3L ~trace:false () in
  let config =
    {
      Ava3.Config.default with
      replicas = 1;
      replica_catchup_timeout = 8.0;
      rpc_timeout = 50.0;
    }
  in
  let db : int Cluster.t = Cluster.create ~engine ~config ~nodes:2 () in
  let cs = Cluster.state db in
  Cluster.load db ~node:0 [ ("a", 1) ];
  Cluster.load db ~node:1 [ ("b", 1) ];
  (* A tree update rooted at partition [root] writing [v] to a at
     partition 0 and to b at partition 1. *)
  let write ~root v =
    let at p =
      let key = if p = 0 then "a" else "b" in
      { Tree.at = p; work = [ Tree.Write (key, v) ]; children = [] }
    in
    { (at root) with children = [ at (1 - root) ] }
  in
  let failures = ref [] in
  let fail what = failures := what :: !failures in
  let tree_update what plan =
    match Cluster.run_tree_update db ~plan with
    | Tree.Committed _ -> ()
    | Tree.Aborted { reason = `Node_down n | `Rpc_timeout n; _ } ->
        fail (Printf.sprintf "%s aborted: node %d unreachable" what n)
    | Tree.Aborted _ -> fail (what ^ " aborted")
    | Tree.Root_down _ -> fail (what ^ ": root down")
  in
  let advanced = ref false in
  let read_a = ref None in
  Sim.Engine.spawn engine (fun () ->
      Sim.Engine.sleep 5.0;
      Cluster.crash db ~node:0;
      let promoted = Cluster_state.primary_site cs 0 in
      if promoted = 0 then fail "no backup promoted";
      tree_update "tree update rooted at partition 0" (write ~root:0 2);
      (match
         Cluster.run_tree_query db
           ~plan:(Tree_query.reads 1 [ "b" ] [ Tree_query.reads 0 [ "a" ] [] ])
       with
      | r ->
          read_a :=
            Some (List.map (fun (_, k, v) -> (k, v)) r.Ava3.Query_exec.values)
      | exception e -> fail ("tree query: " ^ Printexc.to_string e));
      (match
         Cluster.run_tree_update db
           ~plan:
             {
               Tree.at = 1;
               work = [];
               children =
                 [
                   { Tree.at = 0; work = []; children = [] };
                   { Tree.at = promoted; work = []; children = [] };
                 ];
             }
       with
      | exception Invalid_argument _ -> ()
      | _ -> fail "plan naming partition 0 and its new site accepted");
      Cluster.recover db ~node:0;
      Sim.Engine.sleep 20.0;
      tree_update "tree update after site 0 rejoined" (write ~root:1 3);
      match Cluster.advance_and_wait db ~coordinator:1 with
      | `Completed _ -> advanced := true
      | `Busy -> fail "advancement busy");
  Sim.Engine.run ~until:2000.0 engine;
  Alcotest.(check (list string))
    "tree transactions ran" [] (List.rev !failures);
  Alcotest.(check (option (list (pair string (option int)))))
    "tree query read the promoted copy"
    (Some [ ("b", Some 1); ("a", Some 1) ])
    !read_a;
  check_bool "advancement completed" true !advanced;
  (* Every copy of both partitions holds the last tree update's writes. *)
  List.iter
    (fun (p, key) ->
      let sites =
        Cluster_state.primary_site cs p
        :: List.map
             (fun b -> b.Cluster_state.b_site)
             (Array.to_list (Cluster_state.backups cs p))
      in
      List.iter
        (fun s ->
          let nd = Cluster.node db s in
          Alcotest.(check (option int))
            (Printf.sprintf "site %d holds %s=3" s key)
            (Some 3)
            (Store.read_le (Node_state.store nd) key (Node_state.u nd)))
        sites)
    [ (0, "a"); (1, "b") ];
  Alcotest.(check (list string)) "invariants" [] (Cluster.check_invariants db)

(* {1 Failover: a redriven commit stays at the participant's own site} *)

(* A transaction rooted at partition 0 writes at partitions 0 and 1.
   Partition 0's backup is cut off, so its commit gate holds the commit
   round for the whole catch-up timeout; partition 1's primary (site 1)
   crashes inside that window and its backup (site 3) is promoted.  The
   commit round then reaches partition 1's participant: it must go to
   site 1, where the subtransaction lives (and find it down), not to the
   promoted primary, where it would start and commit a participant that
   never prepared: a stray Commit record at site 3 (and, under undo-redo,
   an [Invalid_argument] whenever that fresh participant's version differs
   from the decided one).  The outcome is the acknowledged crash-partial
   edge: partition 0 durable, no retry.  Run under both WAL schemes. *)
let commit_redrive_after_failover scheme =
  let engine = Sim.Engine.create ~seed:7L ~trace:false () in
  let config =
    {
      Ava3.Config.default with
      scheme;
      replicas = 1;
      replica_catchup_timeout = 10.0;
      rpc_timeout = 50.0;
    }
  in
  let db : int Cluster.t = Cluster.create ~engine ~config ~nodes:2 () in
  let cs = Cluster.state db in
  let net = Cluster.network db in
  Cluster.load db ~node:0 [ ("a", 0) ];
  Cluster.load db ~node:1 [ ("b", 0) ];
  let backup0 = (Cluster_state.backups cs 0).(0).Cluster_state.b_site in
  Net.Network.set_link_down net ~src:0 ~dst:backup0 true;
  Net.Network.set_link_down net ~src:backup0 ~dst:0 true;
  let commits site =
    List.filter_map
      (function Wal.Record.Commit { txn; _ } -> Some txn | _ -> None)
      (Wal.Log.records (Node_state.log (Cluster.node db site)))
  in
  let outcome = ref None in
  Sim.Engine.spawn engine (fun () ->
      let s = Session.create db ~seed:1L ~pool:1 ~coordinators:[ 0 ] in
      outcome :=
        Some
          (Session.txn s (fun c ->
               Session.write c ~node:0 "a" 1;
               Session.write c ~node:1 "b" 1)));
  let crashed_at = ref None in
  let shipped = ref [] in
  Sim.Engine.spawn engine (fun () ->
      (* Partition 0's participant committed and now waits in its gate
         (the load's own commit is already in the log). *)
      let loaded = List.length (commits 0) in
      while List.length (commits 0) = loaded do
        Sim.Engine.sleep 0.25
      done;
      crashed_at := Some (Sim.Engine.now engine);
      shipped := commits 1;
      Cluster.crash db ~node:1);
  Sim.Engine.run ~until:1000.0 engine;
  let promoted = Cluster_state.primary_site cs 1 in
  check_bool "partition 1 failed over" true (promoted <> 1);
  check_bool "site 1 crashed inside partition 0's gate wait" true
    (match !crashed_at with
    | Some t -> t < config.Ava3.Config.replica_catchup_timeout
    | None -> false);
  Alcotest.(check (list int))
    "no participant committed at the promoted primary" !shipped
    (commits promoted);
  match !outcome with
  | Some (Session.Failed { durable; _ }) ->
      Alcotest.(check (list int))
        "only partition 0's participant is durable" [ 0 ]
        (List.map fst durable)
  | Some (Session.Committed _) ->
      Alcotest.fail "committed across a lost participant"
  | None -> Alcotest.fail "transaction did not finish"

let test_commit_redrive_after_failover () =
  List.iter commit_redrive_after_failover
    [ Wal.Scheme.Undo_redo; Wal.Scheme.No_undo ]

(* {1 Partition: demotion keeps commits flowing, healing re-syncs} *)

let test_demotion_and_resync () =
  let engine = Sim.Engine.create ~seed:5L ~trace:false () in
  let config =
    { Ava3.Config.default with replicas = 1; replica_catchup_timeout = 5.0 }
  in
  let db : int Cluster.t = Cluster.create ~engine ~config ~nodes:1 () in
  let cs = Cluster.state db in
  let net = Cluster.network db in
  Cluster.load db ~node:0 [ ("a", 0) ];
  let committed_during_partition = ref 0 in
  Sim.Engine.spawn engine (fun () ->
      for i = 1 to 25 do
        (match
           Cluster.run_update db ~root:0
             ~ops:[ Update.Write { node = 0; key = "a"; value = i } ]
         with
        | Update.Committed _ ->
            let t = Sim.Engine.now engine in
            if t > 12.0 && t < 40.0 then incr committed_during_partition
        | Update.Aborted _ | Update.Root_down _ -> ());
        Sim.Engine.sleep 3.0
      done);
  Sim.Engine.spawn engine (fun () ->
      Sim.Engine.sleep 10.0;
      Net.Network.set_link_down net ~src:0 ~dst:1 true;
      Net.Network.set_link_down net ~src:1 ~dst:0 true;
      Sim.Engine.sleep 30.0;
      Net.Network.set_link_down net ~src:0 ~dst:1 false;
      Net.Network.set_link_down net ~src:1 ~dst:0 false);
  Sim.Engine.run engine;
  let s = Cluster.stats db in
  check_bool "straggling backup was demoted" true
    (s.Cluster.replica_demotions >= 1);
  check_bool "commits kept flowing during the partition" true
    (!committed_during_partition > 0);
  (* After healing, the next gated commits re-ship the backlog and the
     backup re-earns its in-sync status and exact convergence. *)
  let b = (Cluster_state.backups cs 0).(0) in
  check_bool "backup back in sync after healing" true b.Cluster_state.b_insync;
  let pnode = Cluster_state.primary cs 0 in
  let bnode = Cluster.node db b.Cluster_state.b_site in
  Alcotest.(check (option int))
    "backup converged to the primary's final value"
    (Store.read_le (Node_state.store pnode) "a" (Node_state.u pnode))
    (Store.read_le (Node_state.store bnode) "a" (Node_state.u bnode))

(* {1 Partition: the catch-up gate waits per partition} *)

(* Two partitions, one backup each.  Partition 0's primary-backup link is
   cut; a transaction at partition 0 then starts at [t0].  Every step of
   it is local and takes no virtual time, so its commit gate begins
   waiting at [t0] (its [Sub_start] entry) and must demote the backup
   exactly [replica_catchup_timeout] later.  Meanwhile partition 1 keeps
   committing: its gates wait on its own backup only, so a commit there
   takes as long during partition 0's wait as before the cut. *)
let test_gate_per_partition () =
  let engine = Sim.Engine.create ~seed:9L ~trace:true () in
  let timeout = 8.0 and t0 = 10.0 in
  let config =
    {
      Ava3.Config.default with
      replicas = 1;
      replica_catchup_timeout = timeout;
      read_service_time = 0.0;
      write_service_time = 0.0;
    }
  in
  let db : int Cluster.t = Cluster.create ~engine ~config ~nodes:2 () in
  let cs = Cluster.state db in
  let net = Cluster.network db in
  Cluster.load db ~node:0 [ ("a", 0) ];
  Cluster.load db ~node:1 [ ("b", 0) ];
  let backup0 = (Cluster_state.backups cs 0).(0).Cluster_state.b_site in
  let write p i =
    let key = if p = 0 then "a" else "b" in
    match
      Cluster.run_update db ~root:p
        ~ops:[ Update.Write { node = p; key; value = i } ]
    with
    | Update.Committed _ -> true
    | Update.Aborted _ | Update.Root_down _ -> false
  in
  (* (start, latency) of every partition-1 commit. *)
  let p1 = ref [] in
  let failed = ref 0 in
  Sim.Engine.spawn engine (fun () ->
      for i = 1 to 30 do
        let start = Sim.Engine.now engine in
        if write 1 i then p1 := (start, Sim.Engine.now engine -. start) :: !p1
        else incr failed;
        Sim.Engine.sleep 1.0
      done);
  let p0_done = ref None in
  Sim.Engine.spawn engine (fun () ->
      Sim.Engine.sleep 5.0;
      Net.Network.set_link_down net ~src:0 ~dst:backup0 true;
      Net.Network.set_link_down net ~src:backup0 ~dst:0 true;
      Sim.Engine.sleep (t0 -. 5.0);
      if write 0 1 then p0_done := Some (Sim.Engine.now engine));
  Sim.Engine.run engine;
  let entries = Sim.Trace.entries (Sim.Engine.trace engine) in
  let times f =
    List.filter_map
      (fun (e : Sim.Trace.entry) -> if f e.event then Some e.time else None)
      entries
  in
  let gate_start =
    times (function Sim.Event.Sub_start { site = 0; _ } -> true | _ -> false)
  in
  let demoted part =
    times (function
      | Sim.Event.Backup_demoted { part = p; _ } -> p = part
      | _ -> false)
  in
  Alcotest.(check (list (float 0.0)))
    "partition 0's transaction started at t0" [ t0 ] gate_start;
  Alcotest.(check (list (float 0.0)))
    "partition 0's backup demoted exactly one timeout after its gate began"
    [ t0 +. timeout ] (demoted 0);
  Alcotest.(check (option (float 0.0)))
    "partition 0's commit returned at the demotion" (Some (t0 +. timeout))
    !p0_done;
  Alcotest.(check (list (float 0.0))) "partition 1's backup never demoted" []
    (demoted 1);
  Alcotest.(check int) "every partition-1 commit succeeded" 0 !failed;
  let latencies keep =
    List.filter_map (fun (t, l) -> if keep t then Some l else None) !p1
  in
  let before = latencies (fun t -> t < 5.0) in
  let during = latencies (fun t -> t >= t0 && t < t0 +. timeout) in
  check_bool "partition 1 committed during partition 0's wait" true
    (during <> []);
  let worst = List.fold_left max 0.0 in
  Alcotest.(check (float 0.0))
    "partition 1's commits never wait on partition 0" (worst before)
    (worst during)

(* {1 Read routing: each eligibility check on its own} *)

type probe = {
  pin : int;
  insync : bool;  (** partition 0's backup, as the read was routed *)
  backup_q : int;  (** its applied query version then *)
  by_backup : bool;  (** the backup served the read *)
  value : int option;  (** of "a", as the query read it *)
  primary_value : int option;  (** of "a" at the pin, at the primary *)
}

(* One query at each of [times] (ascending; a query takes one round
   trip, and a time already past runs at once), rooted at partition 1 and
   reading partition 0's "a", so every read goes through
   [Replication.route_read].  The state of partition 0's backup is taken
   just before the query; with zero service times nothing runs between
   that and the routing decision. *)
let probe_reads db ~times =
  let engine = Cluster.engine db in
  let cs = Cluster.state db in
  let probes = ref [] in
  let backup_reads () = (Cluster.stats db).Cluster.backup_reads in
  Sim.Engine.spawn engine (fun () ->
      List.iter
        (fun t ->
          Sim.Engine.sleep (Float.max 0.0 (t -. Sim.Engine.now engine));
          let b = (Cluster_state.backups cs 0).(0) in
          let insync = b.Cluster_state.b_insync in
          let backup_q = Node_state.q (Cluster.node db b.Cluster_state.b_site) in
          let before = backup_reads () in
          let r = Cluster.run_query db ~root:1 ~reads:[ (0, "a") ] in
          let value = match r.values with [ (_, _, v) ] -> v | _ -> None in
          probes :=
            {
              pin = r.version;
              insync;
              backup_q;
              by_backup = backup_reads () > before;
              value;
              primary_value =
                Store.read_le
                  (Node_state.store (Cluster_state.primary cs 0))
                  "a" r.version;
            }
            :: !probes)
        times);
  probes

let routing_config ~timeout =
  {
    Ava3.Config.default with
    replicas = 1;
    replica_catchup_timeout = timeout;
    read_service_time = 0.0;
    write_service_time = 0.0;
  }

let check_values what probes =
  List.iter
    (fun p ->
      Alcotest.(check (option int))
        (what ^ ": the primary's value at the pin") p.primary_value p.value)
    probes

let check_served_by_primary what probes =
  List.iter
    (fun p -> check_bool (what ^ ": not served by the backup") false p.by_backup)
    probes;
  check_values what probes

(* Partition 0's backup is demoted as in the per-partition gate case
   (link cut, a commit's gate times out), then the link heals.  With no
   commit after the heal nothing re-ships, so the backup stays out of
   sync while alive, reachable and at the query version every pin takes
   (no advancement runs): [b_insync] alone must keep reads off it.  A
   commit later re-syncs it, and then it must serve some reads. *)
let test_route_skips_demoted_backup () =
  let engine = Sim.Engine.create ~seed:9L ~trace:false () in
  let timeout = 8.0 and t0 = 10.0 in
  let db : int Cluster.t =
    Cluster.create ~engine ~config:(routing_config ~timeout) ~nodes:2 ()
  in
  let cs = Cluster.state db in
  let net = Cluster.network db in
  Cluster.load db ~node:0 [ ("a", 0) ];
  Cluster.load db ~node:1 [ ("b", 0) ];
  let backup0 = (Cluster_state.backups cs 0).(0).Cluster_state.b_site in
  let cut down =
    Net.Network.set_link_down net ~src:0 ~dst:backup0 down;
    Net.Network.set_link_down net ~src:backup0 ~dst:0 down
  in
  let write i =
    match
      Cluster.run_update db ~root:0
        ~ops:[ Update.Write { node = 0; key = "a"; value = i } ]
    with
    | Update.Committed _ -> ()
    | Update.Aborted _ | Update.Root_down _ -> Alcotest.fail "write failed"
  in
  Sim.Engine.spawn engine (fun () ->
      Sim.Engine.sleep 5.0;
      cut true;
      Sim.Engine.sleep (t0 -. 5.0);
      write 1;
      cut false;
      Sim.Engine.sleep (40.0 -. Sim.Engine.now engine);
      write 2);
  let healed = t0 +. timeout +. 1.0 in
  let probes =
    probe_reads db
      ~times:
        (List.init 6 (fun i -> healed +. (3.0 *. float i))
        @ List.init 6 (fun i -> 50.0 +. (3.0 *. float i)))
  in
  Sim.Engine.run engine;
  let demoted, resynced = List.partition (fun p -> not p.insync) !probes in
  Alcotest.(check int) "six reads while demoted and healed" 6
    (List.length demoted);
  check_bool "only b_insync excludes the backup" true
    (List.for_all (fun p -> p.backup_q >= p.pin) demoted
    && not (Net.Network.link_is_down net ~src:1 ~dst:backup0));
  check_served_by_primary "demoted" demoted;
  Alcotest.(check int) "six reads after re-sync" 6 (List.length resynced);
  check_bool "the re-synced backup serves reads again" true
    (List.exists (fun p -> p.by_backup) resynced);
  check_values "re-synced" resynced

(* Partition 0's backup sits behind a slow link (6 extra one-way) but a
   catch-up timeout long enough that it is never demoted.  Advancement
   then raises q at partition 1 about seven time units before the
   backup applies partition 0's [Advance_query]: a query pinned in that
   window must not read at the in-sync backup, whose snapshot at the pin
   is still incomplete.  Once the backup's q reaches the pin it must
   serve some reads. *)
let test_route_skips_lagging_backup () =
  let engine = Sim.Engine.create ~seed:9L ~trace:false () in
  let db : int Cluster.t =
    Cluster.create ~engine ~config:(routing_config ~timeout:1000.0) ~nodes:2 ()
  in
  let cs = Cluster.state db in
  let net = Cluster.network db in
  Cluster.load db ~node:0 [ ("a", 0) ];
  Cluster.load db ~node:1 [ ("b", 0) ];
  let backup0 = (Cluster_state.backups cs 0).(0).Cluster_state.b_site in
  Net.Network.set_link_extra net ~src:0 ~dst:backup0 6.0;
  Sim.Engine.spawn engine (fun () ->
      Sim.Engine.sleep 1.0;
      (match
         Cluster.run_update db ~root:0
           ~ops:[ Update.Write { node = 0; key = "a"; value = 1 } ]
       with
      | Update.Committed _ -> ()
      | Update.Aborted _ | Update.Root_down _ -> Alcotest.fail "write failed");
      Sim.Engine.sleep (20.0 -. Sim.Engine.now engine);
      match Cluster.advance_and_wait db ~coordinator:1 with
      | `Completed _ -> ()
      | `Busy -> Alcotest.fail "advancement refused");
  let probes = probe_reads db ~times:(List.init 80 (fun i -> 20.0 +. (0.5 *. float i))) in
  Sim.Engine.run engine;
  check_bool "the backup stayed in sync" true
    (List.for_all (fun p -> p.insync) !probes);
  let lagging = List.filter (fun p -> p.backup_q < p.pin) !probes in
  check_bool "at least two reads pinned past the backup's q" true
    (List.length lagging >= 2);
  check_served_by_primary "lagging" lagging;
  let caught_up = List.filter (fun p -> p.pin = 1 && p.backup_q >= 1) !probes in
  check_bool "the caught-up backup serves reads" true
    (List.exists (fun p -> p.by_backup) caught_up);
  check_values "caught up" caught_up

(* {1 Topology: zero backups is one topology, not a mode} *)

(* What a run exposes: commit outcomes (index, final version or abort),
   each query's version, values and finish time, each primary's u/q/g and
   store, and the protocol counts. *)
type topology_run = {
  outcomes : (int * int option) list;
  answers : (int * (int * string * int option) list * float) list;
  primaries :
    ((int * int * int) * (string * (int * int option) list) list) list;
  counts : int list;
}

(* 4 partitions of 6 keys on a jittery network; 60 random one-to-three-op
   updates and 30 three-key queries over [0, 280), periodic advancement
   every 20 until t = 300.  With [replicas = 1], every backup crashes
   right after the load, so each partition is its primary alone. *)
let topology_run ~seed ~replicas =
  let engine = Sim.Engine.create ~seed ~trace:false () in
  let config = { Ava3.Config.default with replicas } in
  let db : int Cluster.t =
    Cluster.create ~engine ~config
      ~latency:(Net.Latency.Uniform { lo = 0.5; hi = 1.5 })
      ~nodes:4 ()
  in
  let cs = Cluster.state db in
  let key p j = Printf.sprintf "t%d_%d" p j in
  for p = 0 to 3 do
    Cluster.load db ~node:p (List.init 6 (fun j -> (key p j, 0)))
  done;
  for site = 4 to Cluster.node_count db - 1 do
    Cluster.crash db ~node:site
  done;
  let rng = Sim.Rng.create (Int64.add seed 1000L) in
  let item () =
    let p = Sim.Rng.int rng 4 in
    (p, key p (Sim.Rng.int rng 6))
  in
  let outcomes = ref [] and answers = ref [] in
  for i = 0 to 59 do
    let root = Sim.Rng.int rng 4 and at = Sim.Rng.float rng 280.0 in
    let ops =
      List.init (Sim.Rng.int_in rng 1 3) (fun _ ->
          let node, key = item () in
          Update.Write { node; key; value = i })
    in
    Sim.Engine.schedule engine ~delay:at (fun () ->
        let v =
          match Cluster.run_update db ~root ~ops with
          | Update.Committed c -> Some c.Update.final_version
          | Update.Aborted _ | Update.Root_down _ -> None
        in
        outcomes := (i, v) :: !outcomes)
  done;
  for _ = 1 to 30 do
    let root = Sim.Rng.int rng 4 and at = Sim.Rng.float rng 280.0 in
    let reads = List.init 3 (fun _ -> item ()) in
    Sim.Engine.schedule engine ~delay:at (fun () ->
        let r = Cluster.run_query db ~root ~reads in
        answers :=
          (r.Ava3.Query_exec.version, r.values, r.finished_at) :: !answers)
  done;
  Cluster.start_periodic_advancement db ~coordinator:0 ~period:20.0
    ~until:300.0;
  Sim.Engine.run engine;
  let st = Cluster.stats db in
  {
    outcomes = List.sort compare !outcomes;
    answers = List.sort compare !answers;
    primaries =
      List.init 4 (fun p ->
          let nd = Cluster_state.primary cs p in
          ( (Node_state.u nd, Node_state.q nd, Node_state.g nd),
            Store.snapshot (Node_state.store nd) ));
    counts =
      [ st.Cluster.commits; st.aborts; st.queries; st.advancements ];
  }

(* Forces are not compared: [Replication.after_gc] forces the Collect
   record at a primary whose partition has a backup, down or not. *)
let test_backups_down_runs_unreplicated () =
  for seed = 1 to 20 do
    let name what = Printf.sprintf "seed %d: %s" seed what in
    let single = topology_run ~seed:(Int64.of_int seed) ~replicas:0 in
    let down = topology_run ~seed:(Int64.of_int seed) ~replicas:1 in
    check_bool (name "some commits") true
      (List.exists (fun (_, v) -> v <> None) single.outcomes);
    check_bool (name "commit outcomes") true (single.outcomes = down.outcomes);
    check_bool (name "query answers") true (single.answers = down.answers);
    check_bool (name "primary u/q/g and stores") true
      (single.primaries = down.primaries);
    Alcotest.(check (list int))
      (name "commits, aborts, queries, advancements")
      single.counts down.counts
  done

let () =
  Alcotest.run "replication"
    [
      ( "equivalence",
        [
          Alcotest.test_case "pinned backup reads, 10 seeds x 2 gc rules"
            `Quick test_equivalence_across_seeds;
          Alcotest.test_case "convicts a backup acking before applying"
            `Quick test_equivalence_convicts_ack_early;
        ] );
      ( "failover",
        [
          Alcotest.test_case "no acked commit lost" `Quick
            test_failover_no_acked_loss;
          Alcotest.test_case "registry matches the trace" `Quick
            test_registry_matches_trace;
          Alcotest.test_case "tree executors follow failover" `Quick
            test_tree_executors_follow_failover;
          Alcotest.test_case "commit redrive stays at the participant"
            `Quick test_commit_redrive_after_failover;
          Alcotest.test_case "successor owes its phase ack" `Quick
            test_successor_owes_phase_ack;
          Alcotest.test_case "data-empty primary in a partition-aware round"
            `Quick test_empty_partition_failover_in_aware_round;
        ] );
      ( "partition",
        [
          Alcotest.test_case "demotion and re-sync" `Quick
            test_demotion_and_resync;
          Alcotest.test_case "catch-up gate waits per partition" `Quick
            test_gate_per_partition;
        ] );
      ( "routing",
        [
          Alcotest.test_case "skips a demoted backup after healing" `Quick
            test_route_skips_demoted_backup;
          Alcotest.test_case "skips an in-sync backup behind the pin" `Quick
            test_route_skips_lagging_backup;
        ] );
      ( "topology",
        [
          Alcotest.test_case
            "a partition whose backups are all down runs as an unreplicated one"
            `Quick test_backups_down_runs_unreplicated;
        ] );
    ]
