(* Tests for the shared Txn_core / Query_core runtime behaviours that the
   executor drivers rely on: the Root_down rejection sentinel (flat and
   tree), the crash-path counter release in scans, and the tree
   executor's orphaned-dispatch guard. *)

module Cluster = Ava3.Cluster
module Node_state = Ava3.Node_state
module Update = Ava3.Update_exec
module Tree = Ava3.Tree_txn

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_cluster ?config ?(nodes = 3) ?(seed = 11L) body =
  let engine = Sim.Engine.create ~seed () in
  let db : int Cluster.t = Cluster.create ~engine ?config ~nodes () in
  Sim.Engine.spawn engine (fun () -> body db);
  Sim.Engine.run engine;
  db

let sum_nodes f db =
  List.fold_left (fun acc n -> acc + f n) 0 (Cluster.metrics_snapshot db)

let root_down = sum_nodes (fun n -> n.Sim.Metrics.root_down_rejections)

(* {1 Root_down sentinel} *)

(* Submitting to a dead root is a rejection, not an abort: no transaction
   id is allocated, nothing runs anywhere, and the metrics count it
   separately from aborts. *)
let test_root_down_flat () =
  let db =
    with_cluster (fun db ->
        Cluster.load db ~node:0 [ ("a", 0) ];
        Cluster.crash db ~node:1;
        (match
           Cluster.run_update db ~root:1
             ~ops:[ Update.Write { node = 0; key = "a"; value = 1 } ]
         with
        | Update.Root_down { root } -> check_int "rejecting root" 1 root
        | Update.Committed _ | Update.Aborted _ ->
            Alcotest.fail "expected Root_down");
        (* A live root still works after the rejection. *)
        match
          Cluster.run_update db ~root:0
            ~ops:[ Update.Write { node = 0; key = "a"; value = 2 } ]
        with
        | Update.Committed _ -> ()
        | Update.Aborted _ | Update.Root_down _ ->
            Alcotest.fail "expected commit at live root")
  in
  let m = Cluster.metrics db in
  check_int "one rejection" 1 (root_down db);
  check_int "not counted as an abort" 0 (Sim.Metrics.total_aborts m);
  check_int "the live-root commit" 1 (Sim.Metrics.total_commits m);
  let at1 = List.nth (Cluster.metrics_snapshot db) 1 in
  check_int "attributed to the dead root" 1 at1.Sim.Metrics.root_down_rejections

let test_root_down_tree () =
  let db =
    with_cluster (fun db ->
        Cluster.load db ~node:1 [ ("b", 0) ];
        Cluster.crash db ~node:0;
        let plan =
          {
            Tree.at = 0;
            work = [];
            children =
              [ { Tree.at = 1; work = [ Tree.Write ("b", 9) ]; children = [] } ];
          }
        in
        match Cluster.run_tree_update db ~plan with
        | Tree.Root_down { root } -> check_int "rejecting root" 0 root
        | Tree.Committed _ | Tree.Aborted _ ->
            Alcotest.fail "expected Root_down");
  in
  check_int "one rejection" 1 (root_down db);
  check_bool "child untouched" true
    (Node_state.active_update_transactions (Cluster.node db 1) = 0)

(* {1 Crash-path counter release in scans} *)

(* A scan whose remote leg dies must still release every query counter it
   registered (root last), or the pinned version could never be garbage
   collected and Phase 2 of advancement would block forever. *)
let test_scan_crash_releases_counters () =
  let db =
    with_cluster (fun db ->
        Cluster.load db ~node:0 [ ("a1", 1) ];
        Cluster.load db ~node:1 [ ("b1", 2) ];
        Cluster.crash db ~node:1;
        let root = Cluster.node db 0 in
        let pinned = Node_state.q root in
        (match
           Cluster.run_scan db ~root:0
             ~ranges:[ (0, "a", "az"); (1, "b", "bz") ]
         with
        | _ -> Alcotest.fail "expected the scan to fail"
        | exception Net.Network.Node_down n -> check_int "node 1 died" 1 n);
        check_int "root counter released on the crash path" 0
          (Node_state.query_count root ~version:pinned);
        (* Advancement is not blocked by the dead scan's snapshot. *)
        Cluster.recover db ~node:1;
        ignore (Cluster.run_update db ~root:0
                  ~ops:[ Update.Write { node = 0; key = "a1"; value = 5 } ]);
        match Cluster.advance_and_wait db ~coordinator:0 with
        | `Completed _ -> ()
        | `Busy -> Alcotest.fail "advancement busy")
  in
  check_int "no queries recorded for the failed scan" 0
    (Sim.Metrics.total_queries (Cluster.metrics db))

(* {1 Orphaned dispatch in the tree executor} *)

(* The root's RPC to a slow child times out, aborting the transaction
   while the dispatch is still in flight.  When it finally lands, the
   registry's state check must roll the subtransaction back on the spot —
   otherwise its update counter leaks and every future advancement's
   Phase 1 blocks on it. *)
let test_tree_orphaned_dispatch_rolled_back () =
  let config = { Ava3.Config.default with rpc_timeout = 6.0 } in
  let db =
    with_cluster ~config (fun db ->
        Cluster.load db ~node:0 [ ("a", 0) ];
        Cluster.load db ~node:1 [ ("b", 0) ];
        Cluster.load db ~node:2 [ ("c", 0) ];
        (* The dispatch to node 2 is slower than the RPC timeout. *)
        Net.Network.set_link_extra (Cluster.network db) ~src:0 ~dst:2 10.0;
        let plan =
          {
            Tree.at = 0;
            work = [ Tree.Write ("a", 1) ];
            children =
              [
                { Tree.at = 1; work = [ Tree.Write ("b", 1) ]; children = [] };
                { Tree.at = 2; work = [ Tree.Write ("c", 1) ]; children = [] };
              ];
          }
        in
        (match Cluster.run_tree_update db ~plan with
        | Tree.Aborted { reason = `Rpc_timeout n; _ } ->
            check_int "timed out on the slow child" 2 n
        | Tree.Aborted _ -> Alcotest.fail "expected an rpc-timeout abort"
        | Tree.Committed _ | Tree.Root_down _ ->
            Alcotest.fail "expected an abort");
        (* Let the orphaned dispatch land at node 2 and clean up. *)
        Sim.Engine.sleep 20.0;
        for n = 0 to 2 do
          check_int
            (Printf.sprintf "node %d update counter drained" n)
            0
            (Node_state.active_update_transactions (Cluster.node db n))
        done;
        (* Phase 1 of advancement waits on update counters: it must not
           block on the orphan's leaked registration. *)
        ignore (Cluster.run_update db ~root:0
                  ~ops:[ Update.Write { node = 0; key = "a"; value = 2 } ]);
        match Cluster.advance_and_wait db ~coordinator:1 with
        | `Completed _ -> ()
        | `Busy -> Alcotest.fail "advancement busy")
  in
  let m = Cluster.metrics db in
  check_int "exactly one abort" 1 (Sim.Metrics.total_aborts m);
  check_int "one rpc timeout recorded" 1
    (sum_nodes (fun n -> n.Sim.Metrics.rpc_timeouts) db);
  check_bool "nothing committed in version 1 at node 2" true
    (Vstore.Store.read_le (Node_state.store (Cluster.node db 2)) "c" 1 <> Some 1)

let () =
  Alcotest.run "txn_core"
    [
      ( "root-down sentinel",
        [
          Alcotest.test_case "flat executor" `Quick test_root_down_flat;
          Alcotest.test_case "tree executor" `Quick test_root_down_tree;
        ] );
      ( "crash paths",
        [
          Alcotest.test_case "scan releases counters" `Quick
            test_scan_crash_releases_counters;
          Alcotest.test_case "tree orphaned dispatch rolled back" `Quick
            test_tree_orphaned_dispatch_rolled_back;
        ] );
    ]
