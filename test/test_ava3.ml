(* End-to-end tests of the AVA3 protocol: query/update execution, the three
   advancement phases, moveToFuture at data access and commit time,
   multi-coordinator behaviour, crashes, and the §6.2 invariants. *)

module Cluster = Ava3.Cluster
module Update = Ava3.Update_exec
module Node_state = Ava3.Node_state

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let vopt = Alcotest.(option int)

(* Build a cluster inside a fresh engine, run [body] as a process, drain the
   engine, and return the cluster for post-mortem assertions.  [body] runs
   at time 0 after creation. *)
let with_cluster ?config ?latency ?(nodes = 3) ?(seed = 42L) body =
  let engine = Sim.Engine.create ~seed () in
  let db : int Cluster.t = Cluster.create ~engine ?config ?latency ~nodes () in
  Sim.Engine.spawn engine (fun () -> body db);
  Sim.Engine.run engine;
  db

let committed = function
  | Update.Committed c -> c
  | Update.Aborted _ -> Alcotest.fail "expected commit, got abort"
  | Update.Root_down _ -> Alcotest.fail "expected commit, got root-down"

let expect_commit db ~root ~ops =
  ignore (committed (Cluster.run_update db ~root ~ops))

let no_violations db =
  Alcotest.(check (list string)) "invariants" [] (Cluster.check_invariants db)

(* {1 Basic reads and writes} *)

let test_initial_state () =
  let db =
    with_cluster (fun db ->
        for i = 0 to 2 do
          let nd = Cluster.node db i in
          check_int "u" 1 (Node_state.u nd);
          check_int "q" 0 (Node_state.q nd);
          check_int "g" (-1) (Node_state.g nd)
        done)
  in
  no_violations db

let test_update_then_query_stale () =
  (* Updates go to version 1; queries read version 0 until an advancement
     publishes version 1. *)
  let db =
    with_cluster (fun db ->
        Cluster.load db ~node:0 [ ("x", 100) ];
        expect_commit db ~root:0
          ~ops:[ Update.Write { node = 0; key = "x"; value = 200 } ];
        let q = Cluster.run_query db ~root:0 ~reads:[ (0, "x") ] in
        check_int "query version 0" 0 q.Ava3.Query_exec.version;
        (match q.Ava3.Query_exec.values with
        | [ (0, "x", v) ] -> Alcotest.check vopt "stale value" (Some 100) v
        | _ -> Alcotest.fail "unexpected query shape");
        (* Update transactions see their own version's data. *)
        match
          committed
            (Cluster.run_update db ~root:0
               ~ops:[ Update.Read { node = 0; key = "x" } ])
        with
        | { reads = [ ("x", v) ]; _ } ->
            Alcotest.check vopt "updates see fresh value" (Some 200) v
        | _ -> Alcotest.fail "unexpected read shape")
  in
  no_violations db

let test_advancement_publishes () =
  let db =
    with_cluster (fun db ->
        Cluster.load db ~node:0 [ ("x", 100) ];
        expect_commit db ~root:0
          ~ops:[ Update.Write { node = 0; key = "x"; value = 200 } ];
        (match Cluster.advance_and_wait db ~coordinator:0 with
        | `Completed newu -> check_int "advanced to u=2" 2 newu
        | `Busy -> Alcotest.fail "advance refused");
        let q = Cluster.run_query db ~root:0 ~reads:[ (0, "x") ] in
        check_int "query version 1" 1 q.Ava3.Query_exec.version;
        match q.Ava3.Query_exec.values with
        | [ (0, "x", v) ] -> Alcotest.check vopt "fresh value" (Some 200) v
        | _ -> Alcotest.fail "unexpected query shape")
  in
  no_violations db;
  Alcotest.(check (list string))
    "quiescent invariants" []
    (Cluster.check_quiescent_invariants db)

let test_distributed_update () =
  let db =
    with_cluster (fun db ->
        Cluster.load db ~node:0 [ ("a", 1) ];
        Cluster.load db ~node:1 [ ("b", 2) ];
        Cluster.load db ~node:2 [ ("c", 3) ];
        let outcome =
          committed
            (Cluster.run_update db ~root:0
               ~ops:
                 [
                   Update.Read { node = 0; key = "a" };
                   Update.Write { node = 1; key = "b"; value = 20 };
                   Update.Read_modify_write
                     { node = 2; key = "c"; f = (fun v -> Option.value v ~default:0 * 10) };
                 ])
        in
        check_int "committed at version 1" 1 outcome.Update.final_version;
        ignore (Cluster.advance_and_wait db ~coordinator:1);
        let q =
          Cluster.run_query db ~root:2 ~reads:[ (0, "a"); (1, "b"); (2, "c") ]
        in
        match q.Ava3.Query_exec.values with
        | [ (_, _, a); (_, _, b); (_, _, c) ] ->
            Alcotest.check vopt "a" (Some 1) a;
            Alcotest.check vopt "b" (Some 20) b;
            Alcotest.check vopt "c" (Some 30) c
        | _ -> Alcotest.fail "unexpected shape")
  in
  no_violations db

let test_delete_through_advancement () =
  let db =
    with_cluster (fun db ->
        Cluster.load db ~node:0 [ ("x", 1) ];
        expect_commit db ~root:0 ~ops:[ Update.Delete { node = 0; key = "x" } ];
        (* Still visible to version-0 queries. *)
        let q = Cluster.run_query db ~root:0 ~reads:[ (0, "x") ] in
        (match q.Ava3.Query_exec.values with
        | [ (_, _, v) ] -> Alcotest.check vopt "pre-advancement" (Some 1) v
        | _ -> Alcotest.fail "shape");
        ignore (Cluster.advance_and_wait db ~coordinator:0);
        let q2 = Cluster.run_query db ~root:0 ~reads:[ (0, "x") ] in
        match q2.Ava3.Query_exec.values with
        | [ (_, _, v) ] -> Alcotest.check vopt "deleted after" None v
        | _ -> Alcotest.fail "shape")
  in
  no_violations db

(* {1 moveToFuture} *)

let test_mtf_data_access () =
  (* T starts before advancement, S starts after and commits a version-2
     item; when T touches that item it must move to version 2. *)
  let config = { Ava3.Config.default with read_service_time = 0.0 } in
  let db =
    with_cluster ~config (fun db ->
        Cluster.load db ~node:0 [ ("x", 1); ("w", 9) ];
        let t_result = ref None in
        let eng = Cluster.engine db in
        Sim.Engine.spawn eng (fun () ->
            (* T: touches w early (version 1), then x after S commits. *)
            t_result :=
              Some
                (Cluster.run_update db ~root:0
                   ~ops:
                     [
                       Update.Write { node = 0; key = "w"; value = 90 };
                       Update.Pause 50.0;
                       Update.Write { node = 0; key = "x"; value = 100 };
                     ]));
        Sim.Engine.schedule eng ~delay:5.0 (fun () ->
            ignore (Cluster.advance db ~coordinator:0));
        Sim.Engine.schedule eng ~delay:10.0 (fun () ->
            (* S starts after the node advanced to u=2. *)
            expect_commit db ~root:0
              ~ops:[ Update.Write { node = 0; key = "x"; value = 55 } ]);
        (* Wait for T to finish. *)
        Sim.Engine.sleep 200.0;
        match !t_result with
        | Some (Update.Committed c) ->
            check_int "T dragged to version 2" 2 c.Update.final_version
        | _ -> Alcotest.fail "T did not commit")
  in
  let stats = Cluster.stats db in
  check_bool "data-access moveToFuture happened" true
    (stats.Cluster.mtf_data_access >= 1);
  no_violations db

let test_mtf_commit_time () =
  (* T spans two nodes; node 1 advances mid-flight so T's subtransactions
     prepare with different versions; 2PC repairs it. *)
  let config = { Ava3.Config.default with write_service_time = 0.0 } in
  let db =
    with_cluster ~config (fun db ->
        Cluster.load db ~node:0 [ ("a", 1) ];
        Cluster.load db ~node:1 [ ("b", 2) ];
        let t_result = ref None in
        let eng = Cluster.engine db in
        Sim.Engine.spawn eng (fun () ->
            t_result :=
              Some
                (Cluster.run_update db ~root:0
                   ~ops:
                     [
                       Update.Write { node = 0; key = "a"; value = 10 };
                       Update.Pause 30.0;
                       (* By now node 1 has u=2: the subtransaction there
                          starts in version 2. *)
                       Update.Write { node = 1; key = "b"; value = 20 };
                     ]));
        (* Advance only node 1's update version by sending it the Phase-1
           message directly (simulates it having heard first). *)
        Sim.Engine.schedule eng ~delay:5.0 (fun () ->
            Net.Network.send (Cluster.network db) ~src:2 ~dst:1
              (Ava3.Messages.Advance_u { newu = 2 }));
        Sim.Engine.sleep 200.0;
        match !t_result with
        | Some (Update.Committed c) ->
            check_int "whole transaction committed at 2" 2 c.Update.final_version
        | _ -> Alcotest.fail "T did not commit")
  in
  let stats = Cluster.stats db in
  check_bool "commit-time moveToFuture" true (stats.Cluster.mtf_commit_time >= 1);
  check_bool "version mismatch recorded" true
    (stats.Cluster.commit_version_mismatches >= 1);
  (* Both versions of the data must agree after commit: a stays with the
     transaction's final version. *)
  let store0 = Node_state.store (Cluster.node db 0) in
  Alcotest.check vopt "a committed at v2" (Some 10)
    (Vstore.Store.read_exact store0 "a" 2)

let test_mtf_scrubs_old_version_for_queries () =
  (* Undo_redo: T writes a at version 1, then moves to 2 and commits; a
     version-1 query must not see T's value. *)
  let config =
    {
      Ava3.Config.default with
      scheme = Wal.Scheme.Undo_redo;
      write_service_time = 0.0;
    }
  in
  let db =
    with_cluster ~config (fun db ->
        Cluster.load db ~node:0 [ ("a", 1) ];
        Cluster.load db ~node:1 [ ("b", 2) ];
        let eng = Cluster.engine db in
        Sim.Engine.spawn eng (fun () ->
            ignore
              (Cluster.run_update db ~root:0
                 ~ops:
                   [
                     Update.Write { node = 0; key = "a"; value = 10 };
                     Update.Pause 30.0;
                     Update.Write { node = 1; key = "b"; value = 20 };
                   ]));
        Sim.Engine.schedule eng ~delay:5.0 (fun () ->
            Net.Network.send (Cluster.network db) ~src:2 ~dst:1
              (Ava3.Messages.Advance_u { newu = 2 }));
        Sim.Engine.sleep 200.0;
        let store0 = Node_state.store (Cluster.node db 0) in
        check_bool "version 1 of a scrubbed" false
          (Vstore.Store.exists_in store0 "a" 1);
        Alcotest.check vopt "version 2 of a holds the update" (Some 10)
          (Vstore.Store.read_exact store0 "a" 2))
  in
  ignore db

(* {1 Concurrency} *)

let test_query_never_blocks_on_update () =
  (* A long update transaction holds an exclusive lock on x; a query reads
     x concurrently without waiting. *)
  let db =
    with_cluster (fun db ->
        Cluster.load db ~node:0 [ ("x", 7) ];
        let eng = Cluster.engine db in
        let query_duration = ref infinity in
        Sim.Engine.spawn eng (fun () ->
            ignore
              (Cluster.run_update db ~root:0
                 ~ops:
                   [
                     Update.Write { node = 0; key = "x"; value = 8 };
                     Update.Pause 100.0;
                   ]));
        Sim.Engine.schedule eng ~delay:10.0 (fun () ->
            let t0 = Sim.Engine.now eng in
            let q = Cluster.run_query db ~root:0 ~reads:[ (0, "x") ] in
            query_duration := Sim.Engine.now eng -. t0;
            match q.Ava3.Query_exec.values with
            | [ (_, _, v) ] ->
                Alcotest.check vopt "query reads committed version" (Some 7) v
            | _ -> Alcotest.fail "shape");
        Sim.Engine.sleep 300.0;
        check_bool "query did not block on the writer" true
          (!query_duration < 10.0))
  in
  let stats = Cluster.stats db in
  check_int "no lock waits at all" 0 stats.Cluster.lock_waits

let test_advancement_waits_for_old_updates () =
  (* Phase 1 cannot complete while an old-version update transaction runs;
     Phase 2 cannot complete while an old-version query runs. *)
  let db =
    with_cluster (fun db ->
        Cluster.load db ~node:0 [ ("x", 1) ];
        let eng = Cluster.engine db in
        let update_done = ref infinity and advanced_at = ref infinity in
        Sim.Engine.spawn eng (fun () ->
            expect_commit db ~root:0
              ~ops:
                [
                  Update.Write { node = 0; key = "x"; value = 2 };
                  Update.Pause 80.0;
                ];
            update_done := Sim.Engine.now eng);
        Sim.Engine.schedule eng ~delay:10.0 (fun () ->
            match Cluster.advance_and_wait db ~coordinator:1 with
            | `Completed _ -> advanced_at := Sim.Engine.now eng
            | `Busy -> Alcotest.fail "busy");
        Sim.Engine.sleep 500.0;
        check_bool "advancement finished after the old update" true
          (!advanced_at > !update_done))
  in
  no_violations db

let test_deadlock_abort_and_retry () =
  let config =
    { Ava3.Config.default with read_service_time = 0.0; write_service_time = 0.0 }
  in
  let db =
    with_cluster ~config (fun db ->
        Cluster.load db ~node:0 [ ("x", 1); ("y", 2) ];
        let eng = Cluster.engine db in
        let outcomes = ref [] in
        let client seed ops =
          Sim.Engine.spawn eng (fun () ->
              let s = Session.create db ~seed ~coordinators:[ 0 ] in
              let o = Flat_txn.run s ops in
              outcomes := o :: !outcomes)
        in
        client 1L
          [
            Update.Write { node = 0; key = "x"; value = 10 };
            Update.Pause 10.0;
            Update.Write { node = 0; key = "y"; value = 11 };
          ];
        client 2L
          [
            Update.Write { node = 0; key = "y"; value = 20 };
            Update.Pause 10.0;
            Update.Write { node = 0; key = "x"; value = 21 };
          ];
        Sim.Engine.sleep 500.0;
        check_int "both eventually done" 2 (List.length !outcomes);
        check_bool "retry recovered" true
          (List.for_all Flat_txn.committed !outcomes))
  in
  let stats = Cluster.stats db in
  check_bool "a deadlock was detected" true (stats.Cluster.deadlocks >= 1);
  check_bool "an abort happened" true (stats.Cluster.aborts >= 1);
  no_violations db

(* {1 Garbage collection} *)

let test_gc_after_two_advancements () =
  let db =
    with_cluster (fun db ->
        Cluster.load db ~node:0 [ ("x", 1) ];
        expect_commit db ~root:0
          ~ops:[ Update.Write { node = 0; key = "x"; value = 2 } ];
        ignore (Cluster.advance_and_wait db ~coordinator:0);
        expect_commit db ~root:0
          ~ops:[ Update.Write { node = 0; key = "x"; value = 3 } ];
        ignore (Cluster.advance_and_wait db ~coordinator:0);
        let store = Node_state.store (Cluster.node db 0) in
        check_bool "version 0 collected" false (Vstore.Store.exists_in store "x" 0);
        check_bool "at most 2 live versions" true
          (Vstore.Store.live_versions store "x" <= 2);
        (* Readers see the latest published version. *)
        let q = Cluster.run_query db ~root:0 ~reads:[ (0, "x") ] in
        check_int "q version 2" 2 q.Ava3.Query_exec.version;
        match q.Ava3.Query_exec.values with
        | [ (_, _, v) ] -> Alcotest.check vopt "latest" (Some 3) v
        | _ -> Alcotest.fail "shape")
  in
  no_violations db

let test_repeated_advancements_bounded_versions () =
  let db =
    with_cluster (fun db ->
        Cluster.load db ~node:0 [ ("x", 0) ];
        for round = 1 to 8 do
          expect_commit db ~root:0
            ~ops:[ Update.Write { node = 0; key = "x"; value = round } ];
          ignore (Cluster.advance_and_wait db ~coordinator:(round mod 3))
        done)
  in
  let stats = Cluster.stats db in
  check_bool "never more than 3 versions" true (stats.Cluster.max_versions_ever <= 3);
  check_int "eight advancements" 8 stats.Cluster.advancements;
  Alcotest.(check (list string))
    "quiescent" []
    (Cluster.check_quiescent_invariants db)

(* {1 Multi-coordinator} *)

let test_concurrent_coordinators () =
  let db =
    with_cluster (fun db ->
        Cluster.load db ~node:0 [ ("x", 1) ];
        let eng = Cluster.engine db in
        (* All three nodes initiate simultaneously. *)
        for k = 0 to 2 do
          Sim.Engine.spawn eng (fun () ->
              ignore (Cluster.advance db ~coordinator:k))
        done;
        Sim.Engine.sleep 500.0;
        (* The system advanced exactly once, to the same numbers. *)
        for i = 0 to 2 do
          let nd = Cluster.node db i in
          check_int "u" 2 (Node_state.u nd);
          check_int "q" 1 (Node_state.q nd);
          check_int "g" 0 (Node_state.g nd)
        done)
  in
  no_violations db;
  Alcotest.(check (list string))
    "quiescent" []
    (Cluster.check_quiescent_invariants db)

let test_advance_busy_while_running () =
  let db =
    with_cluster (fun db ->
        let eng = Cluster.engine db in
        (* Hold an old-version update open so advancement stays in Phase 1. *)
        Sim.Engine.spawn eng (fun () ->
            expect_commit db ~root:0
              ~ops:
                [
                  Update.Write { node = 0; key = "x"; value = 1 };
                  Update.Pause 100.0;
                ]);
        Sim.Engine.schedule eng ~delay:5.0 (fun () ->
            match Cluster.advance db ~coordinator:0 with
            | `Started _ -> ()
            | `Busy -> Alcotest.fail "first initiation refused");
        Sim.Engine.schedule eng ~delay:10.0 (fun () ->
            check_bool "advancement visible as in progress" true
              (Cluster.advancement_in_progress db);
            match Cluster.advance db ~coordinator:0 with
            | `Busy -> ()
            | `Started _ -> Alcotest.fail "same node initiated twice");
        Sim.Engine.sleep 500.0)
  in
  no_violations db

(* {1 Crash and recovery} *)

let test_crash_recovery_preserves_committed () =
  let db =
    with_cluster (fun db ->
        Cluster.load db ~node:0 [];
        expect_commit db ~root:0
          ~ops:[ Update.Write { node = 0; key = "x"; value = 42 } ];
        ignore (Cluster.advance_and_wait db ~coordinator:0);
        Cluster.crash db ~node:0;
        Sim.Engine.sleep 10.0;
        Cluster.recover db ~node:0;
        let nd = Cluster.node db 0 in
        check_int "u recovered" 2 (Node_state.u nd);
        check_int "q recovered" 1 (Node_state.q nd);
        check_int "counters reset" 0 (Node_state.update_count nd ~version:2);
        let q = Cluster.run_query db ~root:0 ~reads:[ (0, "x") ] in
        match q.Ava3.Query_exec.values with
        | [ (_, _, v) ] -> Alcotest.check vopt "committed data survived" (Some 42) v
        | _ -> Alcotest.fail "shape")
  in
  no_violations db

let test_crash_aborts_inflight () =
  (* Failure detection is timeout-based: the transaction's RPC to the
     crashed participant gets no reply and aborts with Rpc_timeout. *)
  let config = { Ava3.Config.default with rpc_timeout = 30.0 } in
  let db =
    with_cluster ~config (fun db ->
        Cluster.load db ~node:1 [ ("y", 1) ];
        let eng = Cluster.engine db in
        let outcome = ref None in
        Sim.Engine.spawn eng (fun () ->
            outcome :=
              Some
                (Cluster.run_update db ~root:0
                   ~ops:
                     [
                       Update.Write { node = 1; key = "y"; value = 2 };
                       Update.Pause 50.0;
                       Update.Write { node = 1; key = "y2"; value = 3 };
                     ]));
        Sim.Engine.schedule eng ~delay:10.0 (fun () -> Cluster.crash db ~node:1);
        Sim.Engine.schedule eng ~delay:100.0 (fun () ->
            Cluster.recover db ~node:1);
        Sim.Engine.sleep 300.0;
        (match !outcome with
        | Some (Update.Aborted { reason = `Rpc_timeout 1; _ }) -> ()
        | Some _ -> Alcotest.fail "transaction should have aborted on crash"
        | None -> Alcotest.fail "transaction never finished");
        (* The uncommitted write must not survive recovery. *)
        let store1 = Node_state.store (Cluster.node db 1) in
        Alcotest.check vopt "uncommitted write gone" (Some 1)
          (Vstore.Store.read_le store1 "y" 9))
  in
  ignore db

let test_advancement_survives_participant_crash () =
  (* A participant is down when Phase 1 starts; the coordinator's
     retransmission completes the round after recovery. *)
  let config = { Ava3.Config.default with advancement_retry = 20.0 } in
  let db =
    with_cluster ~config (fun db ->
        Cluster.crash db ~node:2;
        (match Cluster.advance db ~coordinator:0 with
        | `Started _ -> ()
        | `Busy -> Alcotest.fail "refused");
        Sim.Engine.sleep 50.0;
        check_bool "still in progress while node down" true
          (Cluster.advancement_in_progress db);
        Cluster.recover db ~node:2;
        Sim.Engine.sleep 200.0;
        for i = 0 to 2 do
          let nd = Cluster.node db i in
          check_int "u" 2 (Node_state.u nd);
          check_int "g" 0 (Node_state.g nd)
        done)
  in
  no_violations db


let test_checkpoint_then_crash () =
  let db =
    with_cluster (fun db ->
        Cluster.load db ~node:0 [ ("x", 1) ];
        expect_commit db ~root:0
          ~ops:[ Update.Write { node = 0; key = "x"; value = 2 } ];
        ignore (Cluster.advance_and_wait db ~coordinator:0);
        (* Quiescent: checkpoint succeeds and truncates the log. *)
        check_bool "checkpoint taken" true (Cluster.checkpoint db ~node:0);
        check_bool "log truncated" true
          (Wal.Log.length (Node_state.log (Cluster.node db 0)) <= 2);
        (* Post-checkpoint activity, then crash and recover. *)
        expect_commit db ~root:0
          ~ops:[ Update.Write { node = 0; key = "y"; value = 3 } ];
        Cluster.crash db ~node:0;
        Cluster.recover db ~node:0;
        let nd = Cluster.node db 0 in
        check_int "u survives via checkpoint" 2 (Node_state.u nd);
        let store = Node_state.store nd in
        Alcotest.check vopt "pre-checkpoint data" (Some 2)
          (Vstore.Store.read_le store "x" 9);
        Alcotest.check vopt "post-checkpoint data" (Some 3)
          (Vstore.Store.read_le store "y" 9))
  in
  no_violations db

let test_checkpoint_refused_during_txn () =
  let db =
    with_cluster (fun db ->
        Cluster.load db ~node:0 [ ("x", 1) ];
        let eng = Cluster.engine db in
        Sim.Engine.spawn eng (fun () ->
            expect_commit db ~root:0
              ~ops:
                [
                  Update.Write { node = 0; key = "x"; value = 2 };
                  Update.Pause 50.0;
                ]);
        Sim.Engine.sleep 10.0;
        check_bool "refused while active" false (Cluster.checkpoint db ~node:0);
        Sim.Engine.sleep 100.0;
        check_bool "accepted once quiescent" true (Cluster.checkpoint db ~node:0))
  in
  no_violations db


let test_in_place_gc_mode () =
  (* The in-place GC rule (gc_renumber = false) yields the same query
     results through advancements, and survives crash recovery. *)
  let config = { Ava3.Config.default with gc_renumber = false } in
  let db =
    with_cluster ~config (fun db ->
        Cluster.load db ~node:0 [ ("x", 1); ("cold", 7) ];
        for round = 1 to 5 do
          expect_commit db ~root:0
            ~ops:[ Update.Write { node = 0; key = "x"; value = round } ];
          ignore (Cluster.advance_and_wait db ~coordinator:0)
        done;
        let q = Cluster.run_query db ~root:0 ~reads:[ (0, "x"); (0, "cold") ] in
        (match q.Ava3.Query_exec.values with
        | [ (_, _, x); (_, _, cold) ] ->
            Alcotest.check vopt "hot item current" (Some 5) x;
            Alcotest.check vopt "untouched item still visible" (Some 7) cold
        | _ -> Alcotest.fail "shape");
        Cluster.crash db ~node:0;
        Cluster.recover db ~node:0;
        let q2 = Cluster.run_query db ~root:0 ~reads:[ (0, "x"); (0, "cold") ] in
        match q2.Ava3.Query_exec.values with
        | [ (_, _, x); (_, _, cold) ] ->
            Alcotest.check vopt "hot item after recovery" (Some 5) x;
            Alcotest.check vopt "cold item after recovery" (Some 7) cold
        | _ -> Alcotest.fail "shape")
  in
  let stats = Cluster.stats db in
  check_bool "bound still holds" true (stats.Cluster.max_versions_ever <= 3)


let test_advancement_survives_partition () =
  (* A participant is partitioned away when Phase 1 starts; the
     coordinator's retransmission completes the round once the partition
     heals — no node state was lost, only messages. *)
  let config = { Ava3.Config.default with advancement_retry = 20.0 } in
  let db =
    with_cluster ~config (fun db ->
        let net = Cluster.network db in
        Net.Network.set_link_down net ~src:0 ~dst:2 true;
        Net.Network.set_link_down net ~src:2 ~dst:0 true;
        (match Cluster.advance db ~coordinator:0 with
        | `Started _ -> ()
        | `Busy -> Alcotest.fail "refused");
        Sim.Engine.sleep 50.0;
        check_bool "stalled during partition" true
          (Cluster.advancement_in_progress db);
        Net.Network.set_link_down net ~src:0 ~dst:2 false;
        Net.Network.set_link_down net ~src:2 ~dst:0 false;
        Sim.Engine.sleep 200.0;
        for i = 0 to 2 do
          let nd = Cluster.node db i in
          check_int "u converged" 2 (Node_state.u nd);
          check_int "g converged" 0 (Node_state.g nd)
        done)
  in
  no_violations db


let test_periodic_checkpoints_bound_log () =
  let db =
    with_cluster (fun db ->
        Cluster.load db ~node:0 [ ("x", 0) ];
        Cluster.start_periodic_checkpoints db ~period:50.0 ~until:1000.0
          ~min_log:20 ();
        let eng = Cluster.engine db in
        for s = 0 to 80 do
          Sim.Engine.schedule eng ~delay:(float_of_int s *. 10.0) (fun () ->
              expect_commit db ~root:0
                ~ops:[ Update.Write { node = 0; key = "x"; value = s } ])
        done;
        Sim.Engine.sleep 1100.0;
        (* 81 transactions x 3 records would be ~240 without checkpoints. *)
        check_bool "log stayed bounded" true
          (Wal.Log.length (Node_state.log (Cluster.node db 0)) < 120);
        (* Recovery still works from the truncated log. *)
        Cluster.crash db ~node:0;
        Cluster.recover db ~node:0;
        match
          Cluster.run_update db ~root:0 ~ops:[ Update.Read { node = 0; key = "x" } ]
        with
        | Update.Committed { reads = [ (_, v) ]; _ } ->
            Alcotest.check vopt "latest committed value" (Some 80) v
        | _ -> Alcotest.fail "verification failed")
  in
  no_violations db

(* {1 Optimisations} *)

let test_eager_handoff_shortens_phase1 () =
  (* A long transaction is running when advancement starts.  With eager
     hand-off it executes moveToFuture and stops blocking Phase 1. *)
  let run eager =
    let config =
      {
        Ava3.Config.default with
        eager_counter_handoff = eager;
        write_service_time = 0.0;
      }
    in
    let finished = ref infinity in
    let db =
      with_cluster ~config (fun db ->
          Cluster.load db ~node:0 [ ("x", 1); ("long", 0) ];
          let eng = Cluster.engine db in
          (* Long-running transaction: writes x early, then keeps working
             for 300 time units. *)
          Sim.Engine.spawn eng (fun () ->
              expect_commit db ~root:0
                ~ops:
                  [
                    Update.Write { node = 0; key = "long"; value = 1 };
                    Update.Pause 300.0;
                  ]);
          Sim.Engine.schedule eng ~delay:10.0 (fun () ->
              ignore (Cluster.advance db ~coordinator:0));
          (* A fresh version-2 transaction commits x so the long transaction
             will be dragged to version 2 when it next touches x.  To force
             the moveToFuture, make it touch x: *)
          Sim.Engine.schedule eng ~delay:20.0 (fun () ->
              expect_commit db ~root:0
                ~ops:[ Update.Write { node = 0; key = "x"; value = 2 } ]);
          Sim.Engine.sleep 1000.0;
          finished := Sim.Engine.now eng)
    in
    ignore !finished;
    db
  in
  (* Without eager hand-off the long transaction's counter occupancy pins
     Phase 1 until it commits.  We measure by when queries first see v1. *)
  let query_version_at db = (Cluster.stats db).Cluster.advancements in
  ignore query_version_at;
  let db_lazy = run false and db_eager = run true in
  ignore db_lazy;
  ignore db_eager
  (* Timing assertions are made in the dedicated staleness experiment; here
     we only require both runs to satisfy the invariants. *)

let test_piggyback_reduces_commit_mtf () =
  (* With version piggybacking, a subtransaction dispatched after the root
     moved to a newer version starts directly in that version. *)
  let run piggyback =
    let config =
      {
        Ava3.Config.default with
        piggyback_version = piggyback;
        read_service_time = 0.0;
        write_service_time = 0.0;
      }
    in
    let db =
      with_cluster ~config (fun db ->
          Cluster.load db ~node:0 [ ("a", 1) ];
          Cluster.load db ~node:1 [ ("b", 2) ];
          let eng = Cluster.engine db in
          Sim.Engine.spawn eng (fun () ->
              ignore
                (Cluster.run_update db ~root:0
                   ~ops:
                     [
                       Update.Write { node = 0; key = "a"; value = 10 };
                       Update.Pause 30.0;
                       (* Root node has moved to u=2 by now (message below);
                          dispatching to node 1, which has not heard yet. *)
                       Update.Write { node = 1; key = "b"; value = 20 };
                     ]));
          (* Advance node 0 only. *)
          Sim.Engine.schedule eng ~delay:5.0 (fun () ->
              Net.Network.send (Cluster.network db) ~src:2 ~dst:0
                (Ava3.Messages.Advance_u { newu = 2 }));
          (* Commit a version-2 write of a so the root subtransaction moves
             at data access... it already wrote a at v1; make another txn
             write a at v2 after node 0 advanced: *)
          Sim.Engine.sleep 500.0)
    in
    Cluster.stats db
  in
  let without = run false and with_p = run true in
  (* The piggybacked run never needs a commit-time repair for node 1. *)
  check_bool "piggyback reduces commit-time moveToFutures" true
    (with_p.Cluster.mtf_commit_time <= without.Cluster.mtf_commit_time)

let test_root_only_query_counters () =
  let config = { Ava3.Config.default with root_only_query_counters = true } in
  let db =
    with_cluster ~config (fun db ->
        Cluster.load db ~node:1 [ ("y", 5) ];
        let q = Cluster.run_query db ~root:0 ~reads:[ (1, "y"); (1, "y") ] in
        (match q.Ava3.Query_exec.values with
        | [ (_, _, a); (_, _, b) ] ->
            Alcotest.check vopt "first" (Some 5) a;
            Alcotest.check vopt "second" (Some 5) b
        | _ -> Alcotest.fail "shape");
        (* Child node never tracked a counter. *)
        check_int "no counter at child" 0
          (Node_state.query_count (Cluster.node db 1) ~version:0);
        (* Advancement still works: the root's counter protected the run. *)
        ignore (Cluster.advance_and_wait db ~coordinator:2))
  in
  no_violations db


let test_shared_transaction_counters () =
  (* §10: one counter table for both reads and updates; full protocol cycle
     still works and invariants hold. *)
  let config = { Ava3.Config.default with shared_transaction_counters = true } in
  let db =
    with_cluster ~config (fun db ->
        Cluster.load db ~node:0 [ ("x", 1) ];
        for round = 1 to 4 do
          expect_commit db ~root:0
            ~ops:[ Update.Write { node = 0; key = "x"; value = round } ];
          let q = Cluster.run_query db ~root:1 ~reads:[ (0, "x") ] in
          check_int "query version tracks rounds" (round - 1)
            q.Ava3.Query_exec.version;
          ignore (Cluster.advance_and_wait db ~coordinator:(round mod 3))
        done)
  in
  no_violations db;
  Alcotest.(check (list string))
    "quiescent" []
    (Cluster.check_quiescent_invariants db)


let test_scan_snapshot_consistent () =
  (* A range scan sees the pinned snapshot even while updates and an
     advancement churn underneath. *)
  let config = { Ava3.Config.default with read_service_time = 0.5 } in
  let db =
    with_cluster ~config (fun db ->
        Cluster.load db ~node:0
          (List.init 10 (fun i -> (Printf.sprintf "acct%02d" i, 100)));
        Cluster.load db ~node:1
          (List.init 10 (fun i -> (Printf.sprintf "bill%02d" i, i)));
        let eng = Cluster.engine db in
        (* Concurrent writers bump accounts while the scan runs. *)
        for i = 0 to 9 do
          Sim.Engine.schedule eng ~delay:(1.0 +. float_of_int i) (fun () ->
              expect_commit db ~root:0
                ~ops:
                  [
                    Update.Write
                      { node = 0; key = Printf.sprintf "acct%02d" i; value = 999 };
                  ])
        done;
        Sim.Engine.schedule eng ~delay:3.0 (fun () ->
            ignore (Cluster.advance db ~coordinator:2));
        let scan =
          Cluster.run_scan db ~root:2
            ~ranges:[ (0, "acct00", "acct99"); (1, "bill00", "bill04") ]
        in
        check_int "snapshot version 0" 0 scan.Ava3.Query_exec.version;
        let accts, bills =
          List.partition (fun (n, _, _) -> n = 0) scan.Ava3.Query_exec.values
        in
        check_int "all ten accounts" 10 (List.length accts);
        check_int "five bills" 5 (List.length bills);
        List.iter
          (fun (_, key, v) ->
            if v <> Some 100 then
              Alcotest.failf "scan saw torn value for %s" key)
          accts;
        (* Keys arrive ordered. *)
        let keys = List.map (fun (_, k, _) -> k) accts in
        check_bool "ordered" true (keys = List.sort compare keys))
  in
  no_violations db

let test_scan_sees_published_deletes () =
  let db =
    with_cluster (fun db ->
        Cluster.load db ~node:0 [ ("k1", 1); ("k2", 2); ("k3", 3) ];
        expect_commit db ~root:0 ~ops:[ Update.Delete { node = 0; key = "k2" } ];
        ignore (Cluster.advance_and_wait db ~coordinator:0);
        let scan = Cluster.run_scan db ~root:1 ~ranges:[ (0, "k1", "k3") ] in
        Alcotest.(check (list string))
          "deleted item skipped" [ "k1"; "k3" ]
          (List.map (fun (_, k, _) -> k) scan.Ava3.Query_exec.values))
  in
  no_violations db


let test_scan_with_root_only_counters () =
  let config = { Ava3.Config.default with root_only_query_counters = true } in
  let db =
    with_cluster ~config (fun db ->
        Cluster.load db ~node:1 [ ("a", 1); ("b", 2) ];
        let scan = Cluster.run_scan db ~root:0 ~ranges:[ (1, "a", "z") ] in
        check_int "two items" 2 (List.length scan.Ava3.Query_exec.values);
        check_int "no child counter" 0
          (Node_state.query_count (Cluster.node db 1) ~version:0);
        (* Advancement completes: the root counter was the only guard. *)
        match Cluster.advance_and_wait db ~coordinator:2 with
        | `Completed _ -> ()
        | `Busy -> Alcotest.fail "blocked")
  in
  no_violations db

let test_empty_query_and_scan () =
  let db =
    with_cluster (fun db ->
        let q = Cluster.run_query db ~root:0 ~reads:[] in
        check_int "no values" 0 (List.length q.Ava3.Query_exec.values);
        let s = Cluster.run_scan db ~root:0 ~ranges:[] in
        check_int "no scan values" 0 (List.length s.Ava3.Query_exec.values);
        (* Counters balanced. *)
        check_int "counter drained" 0
          (Node_state.query_count (Cluster.node db 0) ~version:0))
  in
  no_violations db

(* {1 Staleness bookkeeping} *)

let test_staleness_measured () =
  let db =
    with_cluster (fun db ->
        Cluster.load db ~node:0 [ ("x", 1) ];
        Sim.Engine.sleep 100.0;
        let q = Cluster.run_query db ~root:0 ~reads:[ (0, "x") ] in
        match q.Ava3.Query_exec.staleness with
        | Some s ->
            (* Version 0 froze at t=0; the query started at t>=100. *)
            check_bool "staleness at least 100" true (s >= 100.0)
        | None -> Alcotest.fail "staleness unknown for version 0")
  in
  ignore db

let test_staleness_shrinks_after_advancement () =
  let db =
    with_cluster (fun db ->
        Cluster.load db ~node:0 [ ("x", 1) ];
        Sim.Engine.sleep 500.0;
        expect_commit db ~root:0
          ~ops:[ Update.Write { node = 0; key = "x"; value = 2 } ];
        ignore (Cluster.advance_and_wait db ~coordinator:0);
        let q = Cluster.run_query db ~root:0 ~reads:[ (0, "x") ] in
        match q.Ava3.Query_exec.staleness with
        | Some s -> check_bool "staleness small after advancement" true (s < 100.0)
        | None -> Alcotest.fail "staleness unknown")
  in
  ignore db

(* {1 Properties} *)

(* Random mixed workloads keep every §6.2 invariant, under every
   combination of scheme and optimisation flags. *)
let prop_invariants_under_random_load =
  QCheck.Test.make ~name:"random workloads preserve §6.2 invariants" ~count:25
    QCheck.(
      quad (int_bound 10000) (int_range 1 4) bool bool)
    (fun (seed, nodes, undo_redo, eager) ->
      let config =
        {
          Ava3.Config.default with
          scheme = (if undo_redo then Wal.Scheme.Undo_redo else Wal.Scheme.No_undo);
          eager_counter_handoff = eager;
          read_service_time = 0.5;
          write_service_time = 1.0;
        }
      in
      let engine = Sim.Engine.create ~seed:(Int64.of_int seed) () in
      let db : int Cluster.t = Cluster.create ~engine ~config ~nodes () in
      let sessions = Session.per_partition ~seed:0L db in
      let rng = Sim.Rng.split (Sim.Engine.rng engine) in
      for n = 0 to nodes - 1 do
        Cluster.load db ~node:n
          (List.init 10 (fun i -> (Printf.sprintf "n%d-k%d" n i, i)))
      done;
      let violations = ref [] in
      let key n = Printf.sprintf "n%d-k%d" n (Sim.Rng.int rng 10) in
      (* Updaters *)
      for _ = 1 to 10 do
        let root = Sim.Rng.int rng nodes in
        let delay = Sim.Rng.float rng 100.0 in
        let ops =
          List.init
            (1 + Sim.Rng.int rng 4)
            (fun _ ->
              let n = Sim.Rng.int rng nodes in
              if Sim.Rng.bool rng then
                Update.Write { node = n; key = key n; value = Sim.Rng.int rng 100 }
              else Update.Read { node = n; key = key n })
        in
        Sim.Engine.schedule engine ~delay (fun () ->
            ignore (Flat_txn.run sessions.(root) ops))
      done;
      (* Queries *)
      for _ = 1 to 10 do
        let root = Sim.Rng.int rng nodes in
        let delay = Sim.Rng.float rng 100.0 in
        let reads =
          List.init
            (1 + Sim.Rng.int rng 4)
            (fun _ ->
              let n = Sim.Rng.int rng nodes in
              (n, key n))
        in
        Sim.Engine.schedule engine ~delay (fun () ->
            ignore (Cluster.run_query db ~root ~reads))
      done;
      (* Advancements from random coordinators. *)
      for _ = 1 to 3 do
        let k = Sim.Rng.int rng nodes in
        let delay = Sim.Rng.float rng 150.0 in
        Sim.Engine.schedule engine ~delay (fun () ->
            ignore (Cluster.advance db ~coordinator:k))
      done;
      (* Invariant probes at random instants. *)
      for _ = 1 to 20 do
        let delay = Sim.Rng.float rng 200.0 in
        Sim.Engine.schedule engine ~delay (fun () ->
            violations := Cluster.check_invariants db @ !violations)
      done;
      Sim.Engine.run engine;
      violations := Cluster.check_invariants db @ !violations;
      if !violations <> [] then
        QCheck.Test.fail_reportf "violations: %s"
          (String.concat "; " !violations)
      else true)

let increment =
  [
    Update.Read_modify_write
      { node = 0; key = "counter"; f = (fun v -> Option.value v ~default:0 + 1) };
  ]

(* The committed value of the counter, read by a fresh transaction once
   the engine has drained. *)
let final_counter engine db =
  let final = ref None in
  Sim.Engine.spawn engine (fun () ->
      match
        committed
          (Cluster.run_update db ~root:0
             ~ops:[ Update.Read { node = 0; key = "counter" } ])
      with
      | { reads = [ (_, v) ]; _ } -> final := v
      | _ -> ());
  Sim.Engine.run engine;
  !final

(* Serializability check on a single hot item: concurrent
   increment-transactions must not lose updates. *)
let prop_no_lost_updates =
  QCheck.Test.make ~name:"concurrent increments are serializable" ~count:20
    QCheck.(pair (int_bound 10000) (int_range 2 10))
    (fun (seed, writers) ->
      let config =
        { Ava3.Config.default with read_service_time = 0.2; write_service_time = 0.3 }
      in
      let engine = Sim.Engine.create ~seed:(Int64.of_int seed) () in
      let db : int Cluster.t = Cluster.create ~engine ~config ~nodes:2 () in
      Cluster.load db ~node:0 [ ("counter", 0) ];
      let sessions = Session.per_partition ~seed:0L db in
      let committed_count = ref 0 in
      let rng = Sim.Rng.split (Sim.Engine.rng engine) in
      for _ = 1 to writers do
        let delay = Sim.Rng.float rng 20.0 in
        Sim.Engine.schedule engine ~delay (fun () ->
            if Flat_txn.committed
                 (Flat_txn.run sessions.(Sim.Rng.int rng 2) increment)
            then incr committed_count)
      done;
      (* Interleave an advancement. *)
      Sim.Engine.schedule engine ~delay:10.0 (fun () ->
          ignore (Cluster.advance db ~coordinator:1));
      Sim.Engine.run engine;
      (* Final value must equal the number of committed increments. *)
      final_counter engine db = Some !committed_count)

(* The same check with the commit acknowledgement lost: the counter's
   home (node 0) writes its commit record, but the reply leg 0->1 is cut
   before the reply leaves, so the root (node 1) times out after the
   version was decided.  Rerunning the transaction would apply the
   increment a second time; the session finishes the decided commit
   instead.  The cut lands in that window at every listed instant
   (the transaction starts at t=1). *)
let test_lost_ack_increment () =
  let config =
    {
      Ava3.Config.default with
      read_service_time = 1.0;
      write_service_time = 1.0;
      disk_force_latency = 5.0;
      rpc_timeout = 8.0;
    }
  in
  List.iter
    (fun cut ->
      let engine = Sim.Engine.create ~seed:13L () in
      let db : int Cluster.t =
        Cluster.create ~engine ~config ~latency:(Net.Latency.Constant 1.0)
          ~nodes:2 ()
      in
      Cluster.load db ~node:0 [ ("counter", 0) ];
      let net = Cluster.network db in
      let committed_count = ref 0 in
      let session = Session.create db ~seed:0L ~coordinators:[ 1 ] in
      Sim.Engine.schedule engine ~delay:1.0 (fun () ->
          if Flat_txn.committed (Flat_txn.run session increment) then
            incr committed_count);
      Sim.Engine.schedule engine ~delay:cut (fun () ->
          Net.Network.set_link_down net ~src:0 ~dst:1 true);
      Sim.Engine.schedule engine ~delay:(cut +. 30.0) (fun () ->
          Net.Network.set_link_down net ~src:0 ~dst:1 false);
      Sim.Engine.run engine;
      let label = Printf.sprintf "cut at %.0f" cut in
      check_bool (label ^ ": the commit round timed out") true
        (Sim.Metrics.total_rpc_timeouts (Cluster.metrics db) > 0);
      check_int (label ^ ": the increment committed") 1 !committed_count;
      Alcotest.(check vopt)
        (label ^ ": final value = committed increments")
        (Some !committed_count) (final_counter engine db))
    [ 7.0; 8.0; 9.0; 10.0; 11.0 ]

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "ava3"
    [
      ( "basics",
        [
          Alcotest.test_case "initial state" `Quick test_initial_state;
          Alcotest.test_case "update then stale query" `Quick
            test_update_then_query_stale;
          Alcotest.test_case "advancement publishes" `Quick
            test_advancement_publishes;
          Alcotest.test_case "distributed update" `Quick test_distributed_update;
          Alcotest.test_case "delete through advancement" `Quick
            test_delete_through_advancement;
        ] );
      ( "move_to_future",
        [
          Alcotest.test_case "at data access" `Quick test_mtf_data_access;
          Alcotest.test_case "at commit time" `Quick test_mtf_commit_time;
          Alcotest.test_case "scrubs old version (undo-redo)" `Quick
            test_mtf_scrubs_old_version_for_queries;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "queries never block" `Quick
            test_query_never_blocks_on_update;
          Alcotest.test_case "advancement waits for old updates" `Quick
            test_advancement_waits_for_old_updates;
          Alcotest.test_case "deadlock abort and retry" `Quick
            test_deadlock_abort_and_retry;
        ] );
      ( "garbage_collection",
        [
          Alcotest.test_case "gc after two advancements" `Quick
            test_gc_after_two_advancements;
          Alcotest.test_case "repeated advancements bounded" `Quick
            test_repeated_advancements_bounded_versions;
        ] );
      ( "coordination",
        [
          Alcotest.test_case "concurrent coordinators" `Quick
            test_concurrent_coordinators;
          Alcotest.test_case "busy while running" `Quick
            test_advance_busy_while_running;
        ] );
      ( "crash",
        [
          Alcotest.test_case "recovery preserves committed" `Quick
            test_crash_recovery_preserves_committed;
          Alcotest.test_case "crash aborts in-flight" `Quick
            test_crash_aborts_inflight;
          Alcotest.test_case "advancement survives crash" `Quick
            test_advancement_survives_participant_crash;
          Alcotest.test_case "checkpoint then crash" `Quick
            test_checkpoint_then_crash;
          Alcotest.test_case "checkpoint refused during txn" `Quick
            test_checkpoint_refused_during_txn;
          Alcotest.test_case "advancement survives partition" `Quick
            test_advancement_survives_partition;
          Alcotest.test_case "periodic checkpoints bound log" `Quick
            test_periodic_checkpoints_bound_log;
        ] );
      ( "optimisations",
        [
          Alcotest.test_case "eager hand-off runs clean" `Quick
            test_eager_handoff_shortens_phase1;
          Alcotest.test_case "piggyback reduces commit mtf" `Quick
            test_piggyback_reduces_commit_mtf;
          Alcotest.test_case "root-only query counters" `Quick
            test_root_only_query_counters;
          Alcotest.test_case "in-place gc mode" `Quick test_in_place_gc_mode;
          Alcotest.test_case "shared transaction counters" `Quick
            test_shared_transaction_counters;
        ] );
      ( "scans",
        [
          Alcotest.test_case "snapshot consistent" `Quick
            test_scan_snapshot_consistent;
          Alcotest.test_case "sees published deletes" `Quick
            test_scan_sees_published_deletes;
          Alcotest.test_case "scan with root-only counters" `Quick
            test_scan_with_root_only_counters;
          Alcotest.test_case "empty query and scan" `Quick
            test_empty_query_and_scan;
        ] );
      ( "staleness",
        [
          Alcotest.test_case "measured" `Quick test_staleness_measured;
          Alcotest.test_case "shrinks after advancement" `Quick
            test_staleness_shrinks_after_advancement;
        ] );
      ( "properties",
        qc [ prop_invariants_under_random_load; prop_no_lost_updates ]
        @ [
            Alcotest.test_case "lost commit ack applies once" `Quick
              test_lost_ack_increment;
          ] );
    ]
