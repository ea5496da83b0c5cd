(* Tests for the centralized (single-site) AVA3 of paper §7: a one-node
   cluster whose loopback messages take no time. *)

module Cluster = Ava3.Cluster
module Update = Ava3.Update_exec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let vopt = Alcotest.(option int)

let with_db ?config body =
  let engine = Sim.Engine.create ~seed:5L () in
  let db : int Cluster.t =
    Cluster.create ~engine ?config ~latency:(Net.Latency.Constant 0.0) ~nodes:1
      ()
  in
  Sim.Engine.spawn engine (fun () -> body db);
  Sim.Engine.run engine;
  db

let load db items = Cluster.load db ~node:0 items
let update db ops = Cluster.run_update db ~root:0 ~ops
let query db keys =
  Cluster.run_query db ~root:0 ~reads:(List.map (fun k -> (0, k)) keys)
let advance db = Cluster.advance db ~coordinator:0
let read key = Update.Read { node = 0; key }
let write key value = Update.Write { node = 0; key; value }
let rmw key f = Update.Read_modify_write { node = 0; key; f }
let delete key = Update.Delete { node = 0; key }

let committed = function
  | Update.Committed c -> c
  | Update.Aborted _ -> Alcotest.fail "unexpected abort"
  | Update.Root_down _ -> Alcotest.fail "unexpected root-down"

let test_basic_cycle () =
  let db =
    with_db (fun db ->
        load db [ ("x", 1) ];
        ignore (committed (update db [ write "x" 2 ]));
        (* Query still sees version 0. *)
        let q = query db [ "x" ] in
        (match q.Ava3.Query_exec.values with
        | [ (_, _, v) ] -> Alcotest.check vopt "stale" (Some 1) v
        | _ -> Alcotest.fail "shape");
        (match Cluster.advance_and_wait db ~coordinator:0 with
        | `Completed 2 -> ()
        | _ -> Alcotest.fail "advance");
        let q2 = query db [ "x" ] in
        match q2.Ava3.Query_exec.values with
        | [ (_, _, v) ] -> Alcotest.check vopt "fresh" (Some 2) v
        | _ -> Alcotest.fail "shape")
  in
  Alcotest.(check (list string)) "invariants" [] (Cluster.check_invariants db)

let test_no_distributed_commit () =
  (* Single-site transactions commit without any version mismatch. *)
  let db =
    with_db (fun db ->
        load db [ ("a", 1); ("b", 2) ];
        for i = 1 to 20 do
          ignore
            (committed
               (update db
                  [
                    rmw "a" (fun v -> Option.value v ~default:0 + i);
                    write "b" i;
                  ]))
        done)
  in
  let stats = Cluster.stats db in
  check_int "no mismatches possible" 0 stats.Ava3.Cluster.commit_version_mismatches;
  check_int "twenty commits" 20 stats.Ava3.Cluster.commits

let test_rmw_and_delete () =
  let db =
    with_db (fun db ->
        load db [ ("x", 10) ];
        ignore
          (committed
             (update db
                [
                  rmw "x" (fun v -> Option.value v ~default:0 * 2);
                  delete "x";
                  read "x";
                ]));
        ())
  in
  ignore db

let test_read_own_delete () =
  (* A transaction that deletes an item then reads it sees its own
     deletion. *)
  let observed = ref (Some 999) in
  let _ =
    with_db (fun db ->
        load db [ ("x", 10) ];
        match
          committed
            (update db [ delete "x"; read "x" ])
        with
        | { Update.reads = [ (_, v) ]; _ } -> observed := v
        | _ -> Alcotest.fail "shape")
  in
  Alcotest.check vopt "own delete visible" None !observed

let test_mtf_still_happens_centralized () =
  (* §7: update transactions still move to the future when they encounter
     later-version data mid-advancement. *)
  let config =
    { Ava3.Config.default with read_service_time = 0.0; write_service_time = 0.0 }
  in
  let db =
    with_db ~config (fun db ->
        load db [ ("x", 1); ("y", 2) ];
        let eng = Sim.Engine.current () in
        Sim.Engine.spawn eng (fun () ->
            ignore
              (update db [ write "y" 20; Update.Pause 30.0; write "x" 10 ]));
        Sim.Engine.sleep 5.0;
        (match advance db with `Started _ -> () | `Busy -> Alcotest.fail "busy");
        Sim.Engine.sleep 5.0;
        (* A fresh (version-2) transaction commits x. *)
        ignore (committed (update db [ write "x" 99 ]));
        Sim.Engine.sleep 100.0)
  in
  let stats = Cluster.stats db in
  check_bool "data-access moveToFuture" true (stats.Ava3.Cluster.mtf_data_access >= 1);
  check_int "still no aborts" 0 stats.Ava3.Cluster.aborts

let test_three_version_bound_centralized () =
  let db =
    with_db (fun db ->
        load db [ ("x", 0) ];
        for round = 1 to 6 do
          ignore (committed (update db [ write "x" round ]));
          ignore (Cluster.advance_and_wait db ~coordinator:0)
        done)
  in
  let stats = Cluster.stats db in
  check_bool "bound holds" true (stats.Ava3.Cluster.max_versions_ever <= 3)

let test_queries_lock_free_centralized () =
  let db =
    with_db (fun db ->
        load db [ ("x", 1) ];
        let eng = Sim.Engine.current () in
        Sim.Engine.spawn eng (fun () ->
            ignore (update db [ write "x" 2; Update.Pause 50.0 ]));
        Sim.Engine.sleep 10.0;
        let t0 = Sim.Engine.now eng in
        ignore (query db [ "x" ]);
        check_bool "no blocking" true (Sim.Engine.now eng -. t0 < 5.0))
  in
  let stats = Cluster.stats db in
  check_int "queries never wait on locks" 0 stats.Ava3.Cluster.lock_waits

let test_busy_during_advancement () =
  let _ =
    with_db (fun db ->
        load db [ ("x", 1) ];
        let eng = Sim.Engine.current () in
        (* Keep an old-version transaction open so Phase 1 stalls. *)
        Sim.Engine.spawn eng (fun () ->
            ignore (update db [ write "x" 2; Update.Pause 40.0 ]));
        Sim.Engine.sleep 5.0;
        (match advance db with `Started _ -> () | `Busy -> Alcotest.fail "refused");
        Sim.Engine.sleep 5.0;
        (match advance db with
        | `Busy -> ()
        | `Started _ -> Alcotest.fail "double start");
        Sim.Engine.sleep 200.0)
  in
  ()

let () =
  Alcotest.run "centralized"
    [
      ( "basics",
        [
          Alcotest.test_case "write/advance/read cycle" `Quick test_basic_cycle;
          Alcotest.test_case "no distributed commit" `Quick
            test_no_distributed_commit;
          Alcotest.test_case "rmw and delete" `Quick test_rmw_and_delete;
          Alcotest.test_case "read own delete" `Quick test_read_own_delete;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "moveToFuture still happens" `Quick
            test_mtf_still_happens_centralized;
          Alcotest.test_case "three version bound" `Quick
            test_three_version_bound_centralized;
          Alcotest.test_case "queries lock free" `Quick
            test_queries_lock_free_centralized;
          Alcotest.test_case "busy during advancement" `Quick
            test_busy_during_advancement;
        ] );
    ]
