(* Tests for the R*-style tree executors: concurrent subtransactions with
   bottom-up prepared propagation, and concurrent subquery trees. *)

module Cluster = Ava3.Cluster
module Tree = Ava3.Tree_txn
module Tq = Ava3.Tree_query
module Update = Ava3.Update_exec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let vopt = Alcotest.(option int)

let with_cluster ?config ?(nodes = 5) ?(seed = 11L) body =
  let engine = Sim.Engine.create ~seed () in
  let db : int Cluster.t = Cluster.create ~engine ?config ~nodes () in
  Sim.Engine.spawn engine (fun () -> body db);
  Sim.Engine.run engine;
  db

let committed = function
  | Tree.Committed c -> c
  | Tree.Aborted _ -> Alcotest.fail "expected tree commit"
  | Tree.Root_down _ -> Alcotest.fail "expected tree commit, got root-down"

(* {1 Basic tree execution} *)

let test_tree_commit_across_nodes () =
  let db =
    with_cluster (fun db ->
        for n = 0 to 4 do
          Cluster.load db ~node:n [ (Printf.sprintf "k%d" n, n) ]
        done;
        let plan =
          {
            Tree.at = 0;
            work = [ Tree.Write ("k0", 100) ];
            children =
              [
                {
                  Tree.at = 1;
                  work = [ Tree.Write ("k1", 101); Tree.Read "k1" ];
                  children =
                    [
                      { Tree.at = 3; work = [ Tree.Write ("k3", 103) ]; children = [] };
                      { Tree.at = 4; work = [ Tree.Read "k4" ]; children = [] };
                    ];
                };
                { Tree.at = 2; work = [ Tree.Write ("k2", 102) ]; children = [] };
              ];
          }
        in
        let c = committed (Cluster.run_tree_update db ~plan) in
        check_int "version 1" 1 c.Tree.final_version;
        (* Reads: own-write at node 1 and preloaded value at node 4. *)
        check_bool "read own write" true
          (List.mem (1, "k1", Some 101) c.Tree.reads);
        check_bool "read preloaded" true (List.mem (4, "k4", Some 4) c.Tree.reads);
        (* Publish and verify all writes landed. *)
        ignore (Cluster.advance_and_wait db ~coordinator:2);
        let q =
          Cluster.run_query db ~root:3
            ~reads:[ (0, "k0"); (1, "k1"); (2, "k2"); (3, "k3") ]
        in
        List.iter2
          (fun (_, _, got) expected ->
            Alcotest.check vopt "committed write" (Some expected) got)
          q.Ava3.Query_exec.values [ 100; 101; 102; 103 ])
  in
  Alcotest.(check (list string)) "invariants" [] (Cluster.check_invariants db)

let test_tree_children_run_concurrently () =
  (* Two children each pausing 50 units: a concurrent tree finishes in ~50,
     not ~100. *)
  let db =
    with_cluster (fun db ->
        Cluster.load db ~node:1 [ ("a", 1) ];
        Cluster.load db ~node:2 [ ("b", 2) ];
        let eng = Sim.Engine.current () in
        let t0 = Sim.Engine.now eng in
        let plan =
          {
            Tree.at = 0;
            work = [];
            children =
              [
                { Tree.at = 1; work = [ Tree.Write ("a", 10); Tree.Pause 50.0 ]; children = [] };
                { Tree.at = 2; work = [ Tree.Write ("b", 20); Tree.Pause 50.0 ]; children = [] };
              ];
          }
        in
        ignore (committed (Cluster.run_tree_update db ~plan));
        let elapsed = Sim.Engine.now eng -. t0 in
        check_bool "parallel children" true (elapsed < 80.0))
  in
  ignore db

(* A plan naming one node twice is rejected by both executors, whether
   the repeat is a child of the root or a grandchild repeating a node of
   another branch (the check walks every level of the tree).  Without the
   repeat the same shape runs. *)
let test_tree_rejects_duplicate_nodes () =
  let leaf at = { Tree.at; work = []; children = [] } in
  let shallow = { (leaf 0) with children = [ leaf 0 ] } in
  let deep =
    {
      (leaf 0) with
      children =
        [ { (leaf 2) with children = [ leaf 3 ] }; { (leaf 1) with children = [ leaf 3 ] } ];
    }
  in
  let rec query (p : int Tree.plan) = Tq.reads p.at [] (List.map query p.children) in
  let _ =
    with_cluster (fun db ->
        List.iter
          (fun (what, plan) ->
            (match Cluster.run_tree_update db ~plan with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail (what ^ ": tree update accepted it"));
            match Cluster.run_tree_query db ~plan:(query plan) with
            | exception Invalid_argument _ -> ()
            | _ -> Alcotest.fail (what ^ ": tree query accepted it"))
          [ ("root repeated", shallow); ("grandchild repeats a branch", deep) ];
        let distinct = { deep with children = [ List.hd deep.children; leaf 1 ] } in
        ignore (committed (Cluster.run_tree_update db ~plan:distinct));
        ignore (Cluster.run_tree_query db ~plan:(query distinct)))
  in
  ()

let test_tree_version_mismatch_repair () =
  (* The root runs in version 1; a child lands on a node that has already
     advanced to 2.  The prepared max is 2 and the root repairs itself at
     commit time. *)
  let config =
    { Ava3.Config.default with read_service_time = 0.0; write_service_time = 0.0 }
  in
  let db =
    with_cluster ~config (fun db ->
        Cluster.load db ~node:0 [ ("a", 1) ];
        Cluster.load db ~node:1 [ ("b", 2) ];
        (* Advance node 1 only. *)
        Net.Network.send (Cluster.network db) ~src:2 ~dst:1
          (Ava3.Messages.Advance_u { newu = 2 });
        Sim.Engine.sleep 5.0;
        let plan =
          {
            Tree.at = 0;
            work = [ Tree.Write ("a", 10) ];
            children = [ { Tree.at = 1; work = [ Tree.Write ("b", 20) ]; children = [] } ];
          }
        in
        let c = committed (Cluster.run_tree_update db ~plan) in
        check_int "committed at the max version" 2 c.Tree.final_version)
  in
  let stats = Cluster.stats db in
  check_bool "mismatch recorded" true (stats.Cluster.commit_version_mismatches >= 1);
  check_bool "commit-time moveToFuture at the root" true
    (stats.Cluster.mtf_commit_time >= 1)

let test_tree_abort_rolls_back_all_branches () =
  (* One branch deadlocks; every branch's writes must vanish. *)
  let config =
    { Ava3.Config.default with read_service_time = 0.0; write_service_time = 0.0 }
  in
  let db =
    with_cluster ~config (fun db ->
        Cluster.load db ~node:1 [ ("x", 1); ("y", 2) ];
        Cluster.load db ~node:2 [ ("z", 3) ];
        let eng = Sim.Engine.current () in
        (* A competing flat transaction takes y then x (opposite order). *)
        Sim.Engine.spawn eng (fun () ->
            ignore
              (Cluster.run_update db ~root:1
                 ~ops:
                   [
                     Update.Write { node = 1; key = "y"; value = 99 };
                     Update.Pause 10.0;
                     Update.Write { node = 1; key = "x"; value = 99 };
                   ]));
        Sim.Engine.sleep 2.0;
        let plan =
          {
            Tree.at = 0;
            work = [];
            children =
              [
                {
                  Tree.at = 1;
                  work = [ Tree.Write ("x", 5); Tree.Pause 5.0; Tree.Write ("y", 5) ];
                  children = [];
                };
                { Tree.at = 2; work = [ Tree.Write ("z", 5) ]; children = [] };
              ];
          }
        in
        (match Cluster.run_tree_update db ~plan with
        | Tree.Aborted { reason = `Deadlock; _ } -> ()
        | Tree.Aborted _ | Tree.Root_down _ ->
            Alcotest.fail "wrong abort reason"
        | Tree.Committed _ ->
            (* The deadlock victim could be the flat transaction instead;
               accept but verify data below either way. *)
            ());
        Sim.Engine.sleep 100.0;
        (* z must reflect either the tree's committed value or the original;
           never a torn write from an aborted branch. *)
        match
          Cluster.run_update db ~root:2 ~ops:[ Update.Read { node = 2; key = "z" } ]
        with
        | Update.Committed { reads = [ (_, Some z) ]; _ } ->
            check_bool "z consistent" true (z = 3 || z = 5)
        | _ -> Alcotest.fail "verification read failed")
  in
  Alcotest.(check (list string)) "invariants" [] (Cluster.check_invariants db)


let test_deep_tree () =
  (* A three-level chain: grandchild's prepared version propagates to the
     root through its parent. *)
  let db =
    with_cluster (fun db ->
        for n = 0 to 2 do
          Cluster.load db ~node:n [ (Printf.sprintf "k%d" n, n) ]
        done;
        (* Advance node 2 only, so the grandchild starts in version 2. *)
        Net.Network.send (Cluster.network db) ~src:0 ~dst:2
          (Ava3.Messages.Advance_u { newu = 2 });
        Sim.Engine.sleep 5.0;
        let plan =
          {
            Tree.at = 0;
            work = [ Tree.Write ("k0", 10) ];
            children =
              [
                {
                  Tree.at = 1;
                  work = [ Tree.Write ("k1", 11) ];
                  children =
                    [ { Tree.at = 2; work = [ Tree.Write ("k2", 12) ]; children = [] } ];
                };
              ];
          }
        in
        let c = committed (Cluster.run_tree_update db ~plan) in
        check_int "grandchild version wins" 2 c.Tree.final_version)
  in
  Alcotest.(check (list string)) "invariants" [] (Cluster.check_invariants db)

(* {1 Tree queries} *)

let test_tree_query_composes () =
  let db =
    with_cluster (fun db ->
        for n = 0 to 4 do
          Cluster.load db ~node:n [ (Printf.sprintf "k%d" n, n * 10) ]
        done;
        let plan =
          Tq.reads 0 [ "k0" ]
            [
              Tq.reads 1 [ "k1" ] [ Tq.reads 3 [ "k3" ] [] ];
              Tq.reads 2 [ "k2" ] [];
            ]
        in
        let q = Cluster.run_tree_query db ~plan in
        check_int "version 0" 0 q.Ava3.Query_exec.version;
        let expected = [ (0, "k0", Some 0); (1, "k1", Some 10); (3, "k3", Some 30); (2, "k2", Some 20) ] in
        List.iter
          (fun e -> check_bool "value present" true (List.mem e q.Ava3.Query_exec.values))
          expected;
        check_int "four values" 4 (List.length q.Ava3.Query_exec.values))
  in
  let stats = Cluster.stats db in
  check_int "queries take no locks" 0 stats.Cluster.lock_waits

let test_tree_query_counters_drain () =
  let db =
    with_cluster (fun db ->
        Cluster.load db ~node:1 [ ("k1", 1) ];
        let plan = Tq.reads 0 [] [ Tq.reads 1 [ "k1" ] [] ] in
        ignore (Cluster.run_tree_query db ~plan);
        for n = 0 to 1 do
          check_int "counter drained"
            0
            (Ava3.Node_state.query_count (Cluster.node db n) ~version:0)
        done;
        (* Advancement still completes — nothing leaked. *)
        match Cluster.advance_and_wait db ~coordinator:0 with
        | `Completed _ -> ()
        | `Busy -> Alcotest.fail "advancement blocked")
  in
  ignore db

let test_tree_query_blocks_gc_until_done () =
  (* A slow subquery tree must hold Phase 2 back, exactly like flat
     queries. *)
  let config = { Ava3.Config.default with read_service_time = 1.0 } in
  let db =
    with_cluster ~config (fun db ->
        Cluster.load db ~node:1
          (List.init 30 (fun i -> (Printf.sprintf "k%d" i, i)));
        let eng = Sim.Engine.current () in
        let query_done = ref infinity and advanced = ref infinity in
        Sim.Engine.spawn eng (fun () ->
            let plan =
              Tq.reads 0 []
                [ Tq.reads 1 (List.init 30 (fun i -> Printf.sprintf "k%d" i)) [] ]
            in
            ignore (Cluster.run_tree_query db ~plan);
            query_done := Sim.Engine.now eng);
        Sim.Engine.schedule eng ~delay:5.0 (fun () ->
            match Cluster.advance_and_wait db ~coordinator:2 with
            | `Completed _ -> advanced := Sim.Engine.now eng
            | `Busy -> Alcotest.fail "busy");
        Sim.Engine.sleep 300.0;
        check_bool "gc waited for the subquery tree" true (!advanced > !query_done))
  in
  ignore db

let test_tree_query_node_down () =
  let _ =
    with_cluster (fun db ->
        Cluster.load db ~node:1 [ ("k1", 1) ];
        Cluster.crash db ~node:1;
        let plan = Tq.reads 0 [] [ Tq.reads 1 [ "k1" ] [] ] in
        (match Cluster.run_tree_query db ~plan with
        | exception Net.Network.Node_down 1 -> ()
        | _ -> Alcotest.fail "expected Node_down");
        (* Root counter must not leak even on failure. *)
        check_int "root counter drained" 0
          (Ava3.Node_state.query_count (Cluster.node db 0) ~version:0))
  in
  ()

(* {1 Equivalence with the flat executor} *)

let prop_tree_matches_flat =
  QCheck.Test.make ~name:"tree and flat executors commit the same data"
    ~count:40
    QCheck.(pair (int_bound 10_000) (int_range 1 4))
    (fun (seed, fanout) ->
      let run use_tree =
        let engine = Sim.Engine.create ~seed:(Int64.of_int seed) ~trace:false () in
        let db : int Cluster.t = Cluster.create ~engine ~nodes:(fanout + 1) () in
        for n = 0 to fanout do
          Cluster.load db ~node:n [ (Printf.sprintf "k%d" n, n) ]
        done;
        Sim.Engine.spawn engine (fun () ->
            if use_tree then
              let plan =
                {
                  Tree.at = 0;
                  work = [ Tree.Write ("k0", 1000) ];
                  children =
                    List.init fanout (fun i ->
                        {
                          Tree.at = i + 1;
                          work = [ Tree.Write (Printf.sprintf "k%d" (i + 1), 1000 + i) ];
                          children = [];
                        });
                }
              in
              ignore (Cluster.run_tree_update db ~plan)
            else
              ignore
                (Cluster.run_update db ~root:0
                   ~ops:
                     (Update.Write { node = 0; key = "k0"; value = 1000 }
                     :: List.init fanout (fun i ->
                            Update.Write
                              { node = i + 1; key = Printf.sprintf "k%d" (i + 1); value = 1000 + i })));
            ignore (Cluster.advance_and_wait db ~coordinator:0));
        Sim.Engine.run engine;
        List.init (fanout + 1) (fun n ->
            Vstore.Store.read_le
              (Ava3.Node_state.store (Cluster.node db n))
              (Printf.sprintf "k%d" n)
              max_int)
      in
      run true = run false)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "tree"
    [
      ( "updates",
        [
          Alcotest.test_case "commit across nodes" `Quick
            test_tree_commit_across_nodes;
          Alcotest.test_case "children run concurrently" `Quick
            test_tree_children_run_concurrently;
          Alcotest.test_case "rejects duplicate nodes" `Quick
            test_tree_rejects_duplicate_nodes;
          Alcotest.test_case "version mismatch repair" `Quick
            test_tree_version_mismatch_repair;
          Alcotest.test_case "abort rolls back branches" `Quick
            test_tree_abort_rolls_back_all_branches;
          Alcotest.test_case "deep tree version propagation" `Quick
            test_deep_tree;
        ] );
      ( "queries",
        [
          Alcotest.test_case "composes results" `Quick test_tree_query_composes;
          Alcotest.test_case "counters drain" `Quick test_tree_query_counters_drain;
          Alcotest.test_case "blocks gc until done" `Quick
            test_tree_query_blocks_gc_until_done;
          Alcotest.test_case "node down" `Quick test_tree_query_node_down;
        ] );
      ("equivalence", qc [ prop_tree_matches_flat ]);
    ]
