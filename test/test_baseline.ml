(* Tests for the baseline protocols and the workload machinery, plus the
   cross-protocol behavioural contrasts the paper claims. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* {1 Zipf and keyspace} *)

let test_zipf_skew () =
  let z = Workload.Zipf.create ~n:100 ~theta:1.0 in
  let rng = Sim.Rng.create 5L in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let r = Workload.Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  check_bool "rank 0 much hotter than rank 50" true
    (counts.(0) > 10 * counts.(50));
  check_bool "all samples in range" true (Array.for_all (fun c -> c >= 0) counts)

let test_zipf_uniform () =
  let z = Workload.Zipf.create ~n:10 ~theta:0.0 in
  let rng = Sim.Rng.create 6L in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let r = Workload.Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  Array.iter
    (fun c -> check_bool "roughly uniform" true (c > 700 && c < 1300))
    counts

let test_histogram () =
  let h = Workload.Histogram.create () in
  for i = 1 to 100 do
    Workload.Histogram.add h (float_of_int i)
  done;
  check_int "count" 100 (Workload.Histogram.count h);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Workload.Histogram.mean h);
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Workload.Histogram.percentile h 0.5);
  Alcotest.(check (float 1e-9)) "p99" 99.0 (Workload.Histogram.percentile h 0.99);
  Alcotest.(check (float 1e-9)) "max" 100.0 (Workload.Histogram.max_value h)

let test_keyspace () =
  let ks = Workload.Keyspace.create ~nodes:3 ~keys_per_node:10 ~theta:0.5 in
  let rng = Sim.Rng.create 7L in
  for _ = 1 to 100 do
    let node, key = Workload.Keyspace.draw ks rng in
    check_bool "node in range" true (node >= 0 && node < 3);
    check_bool "key belongs to node" true
      (String.length key > 1 && key.[1] = Char.chr (Char.code '0' + node))
  done;
  check_int "all_keys size" 10 (List.length (Workload.Keyspace.all_keys ks ~node:0))

(* {1 Driver smoke tests per protocol} *)

let small_spec =
  {
    Workload.Driver.default_spec with
    duration = 300.0;
    update_rate = 0.3;
    query_rate = 0.15;
    long_query_period = 100.0;
    long_query_reads = 12;
  }

let preload load_fn db ks =
  for n = 0 to Workload.Keyspace.nodes ks - 1 do
    load_fn db ~node:n
      (List.map (fun k -> (k, 0)) (Workload.Keyspace.all_keys ks ~node:n))
  done

let run_driver (type db) (module Db : Workload.Db_intf.DB with type t = db)
    (make : Sim.Engine.t -> db) (load : db -> node:int -> (string * int) list -> unit) =
  let engine = Sim.Engine.create ~seed:99L () in
  let db = make engine in
  let ks = Workload.Keyspace.create ~nodes:3 ~keys_per_node:20 ~theta:0.9 in
  preload load db ks;
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let report =
    Workload.Driver.run
      (module Db)
      db ~engine ~rng ~keyspace:ks ~spec:small_spec
  in
  (* Every comparator takes locks for its updates, so each reports the
     time they waited (E5's lock-wait column). *)
  check_bool "reports lock_wait_time" true
    (List.mem_assoc "lock_wait_time" (Db.extra_stats db));
  (db, report)

let assert_healthy (report : Workload.Driver.report) =
  check_bool "some commits" true (report.Workload.Driver.committed > 20);
  check_bool "some queries" true (report.Workload.Driver.queries_ok > 10);
  check_bool "no failed queries" true (report.Workload.Driver.queries_failed = 0)

let test_driver_ava3 () =
  let db, report =
    run_driver
      (module Baseline.Ava3_db)
      (fun engine ->
        Baseline.Ava3_db.create ~engine ~advancement_period:50.0
          ~advancement_until:300.0 ~nodes:3 ())
      Baseline.Ava3_db.load
  in
  assert_healthy report;
  check_bool "at most 3 versions" true (Baseline.Ava3_db.max_versions_ever db <= 3);
  check_bool "advancements happened" true
    (List.assoc "advancements" (Baseline.Ava3_db.extra_stats db) > 1.0);
  check_bool "staleness measured" true
    (Workload.Histogram.count report.Workload.Driver.staleness > 0);
  Alcotest.(check (list string))
    "invariants hold" []
    (Ava3.Cluster.check_invariants (Baseline.Ava3_db.cluster db))

let test_driver_ava3_tree_mode () =
  (* The adapter's tree mode runs the same workload through the R*-style
     executor with concurrent subtransactions. *)
  let db, report =
    run_driver
      (module Baseline.Ava3_db)
      (fun engine ->
        Baseline.Ava3_db.create ~engine ~advancement_period:50.0
          ~advancement_until:300.0 ~use_tree:true ~nodes:3 ())
      Baseline.Ava3_db.load
  in
  assert_healthy report;
  check_bool "at most 3 versions" true (Baseline.Ava3_db.max_versions_ever db <= 3);
  Alcotest.(check (list string))
    "invariants hold under tree execution" []
    (Ava3.Cluster.check_invariants (Baseline.Ava3_db.cluster db))

let test_driver_s2pl () =
  let db, report =
    run_driver
      (module Baseline.S2pl)
      (fun engine -> Baseline.S2pl.create ~engine ~nodes:3 ())
      Baseline.S2pl.load
  in
  assert_healthy report;
  check_int "single version" 1 (Baseline.S2pl.max_versions_ever db)

let test_driver_two_version () =
  let db, report =
    run_driver
      (module Baseline.Two_version)
      (fun engine -> Baseline.Two_version.create ~engine ~nodes:3 ())
      Baseline.Two_version.load
  in
  assert_healthy report;
  check_int "two versions" 2 (Baseline.Two_version.max_versions_ever db)

let test_driver_mvcc () =
  let db, report =
    run_driver
      (module Baseline.Mvcc)
      (fun engine -> Baseline.Mvcc.create ~engine ~nodes:3 ())
      Baseline.Mvcc.load
  in
  assert_healthy report;
  check_bool "chains can exceed three" true
    (Baseline.Mvcc.max_versions_ever db >= 1)

let test_driver_four_version () =
  let db, report =
    run_driver
      (module Baseline.Ava3_db)
      (fun engine ->
        Baseline.Ava3_db.create ~engine ~config:Baseline.Ava3_db.four_version
          ~advancement_period:50.0 ~advancement_until:300.0 ~nodes:3 ())
      Baseline.Ava3_db.load
  in
  assert_healthy report;
  check_bool "at most 4 versions" true
    (Baseline.Ava3_db.max_versions_ever db <= 4)

(* {1 Behavioural contrasts (small-scale versions of experiment E5/E7)} *)

(* Under S2PL a long query blocks writers; under AVA3 it does not. *)
let test_contrast_query_interference () =
  let blocking_spec =
    {
      small_spec with
      duration = 400.0;
      long_query_period = 50.0;
      long_query_reads = 30;
    }
  in
  let run_s2pl () =
    let engine = Sim.Engine.create ~seed:3L () in
    let db = Baseline.S2pl.create ~engine ~nodes:3 () in
    let ks = Workload.Keyspace.create ~nodes:3 ~keys_per_node:20 ~theta:0.9 in
    preload Baseline.S2pl.load db ks;
    let rng = Sim.Rng.split (Sim.Engine.rng engine) in
    let _ =
      Workload.Driver.run
        (module Baseline.S2pl)
        db ~engine ~rng ~keyspace:ks ~spec:blocking_spec
    in
    List.assoc "lock_wait_time" (Baseline.S2pl.extra_stats db)
  in
  let run_ava3 () =
    let engine = Sim.Engine.create ~seed:3L () in
    let db =
      Baseline.Ava3_db.create ~engine ~advancement_period:50.0
        ~advancement_until:400.0 ~nodes:3 ()
    in
    let ks = Workload.Keyspace.create ~nodes:3 ~keys_per_node:20 ~theta:0.9 in
    preload Baseline.Ava3_db.load db ks;
    let rng = Sim.Rng.split (Sim.Engine.rng engine) in
    let _ =
      Workload.Driver.run
        (module Baseline.Ava3_db)
        db ~engine ~rng ~keyspace:ks ~spec:blocking_spec
    in
    List.assoc "lock_wait_time" (Baseline.Ava3_db.extra_stats db)
  in
  (* AVA3's lock waiting comes only from update-update conflicts; S2PL adds
     query-update interference on a hot skewed keyspace. *)
  check_bool "s2pl waits more than ava3" true (run_s2pl () > run_ava3 ())

(* A long query makes unbounded MVCC grow version chains beyond three. *)
let test_contrast_mvcc_growth () =
  let engine = Sim.Engine.create ~seed:11L () in
  let db = Baseline.Mvcc.create ~engine ~nodes:2 () in
  Baseline.Mvcc.load db ~node:0 [ ("hot", 0) ];
  Baseline.Mvcc.load db ~node:1 [ ("cold", 0) ];
  (* One very long query pins the GC horizon... *)
  Sim.Engine.spawn engine (fun () ->
      ignore
        (Baseline.Mvcc.submit_query db ~root:1
           ~reads:(List.init 40 (fun _ -> (1, "cold")))));
  (* ...while a stream of writers keeps updating the hot item. *)
  for i = 1 to 30 do
    Sim.Engine.schedule engine
      ~delay:(float_of_int i *. 0.1)
      (fun () ->
        ignore
          (Baseline.Mvcc.submit_update db ~root:0
             ~ops:[ Workload.Db_intf.Write { node = 0; key = "hot"; value = i } ]))
  done;
  Sim.Engine.run engine;
  check_bool "chain grew beyond AVA3's bound" true
    (Baseline.Mvcc.max_versions_ever db > 3)

(* The synchronous-advancement four-version scheme aborts transactions that
   straddle an advancement; AVA3 never does. *)
let test_contrast_sync_advancement_aborts () =
  let engine = Sim.Engine.create ~seed:21L () in
  let db =
    Baseline.Ava3_db.create ~engine
      ~config:
        {
          Baseline.Ava3_db.four_version with
          read_service_time = 0.0;
          write_service_time = 0.0;
        }
      ~advancement_period:0.0 ~nodes:2 ()
  in
  Baseline.Ava3_db.load db ~node:0 [ ("a", 0) ];
  Baseline.Ava3_db.load db ~node:1 [ ("b", 0) ];
  let cluster = Baseline.Ava3_db.cluster db in
  (* A transaction that writes on node 0, lingers across an advancement,
     then writes on node 1 — a guaranteed version mismatch. *)
  Sim.Engine.spawn engine (fun () ->
      ignore
        (Baseline.Ava3_db.submit_update db ~root:0
           ~ops:
             [
               Workload.Db_intf.Write { node = 0; key = "a"; value = 1 };
               Workload.Db_intf.Read { node = 0; key = "a" };
             ]));
  Sim.Engine.spawn engine (fun () ->
      ignore
        (Ava3.Cluster.run_update cluster ~root:0
           ~ops:
             [
               Ava3.Update_exec.Write { node = 0; key = "a"; value = 2 };
               Ava3.Update_exec.Pause 30.0;
               Ava3.Update_exec.Write { node = 1; key = "b"; value = 2 };
             ]));
  Sim.Engine.schedule engine ~delay:5.0 (fun () ->
      Net.Network.send (Ava3.Cluster.network cluster) ~src:1 ~dst:1
        (Ava3.Messages.Advance_u { newu = 2 }));
  Sim.Engine.run engine;
  let s = Ava3.Cluster.stats cluster in
  check_bool "straddling transaction aborted" true (s.Ava3.Cluster.aborts >= 1);
  check_bool "counted as a mismatch abort" true
    (List.assoc "mismatch_aborts" (Baseline.Ava3_db.extra_stats db) >= 1.0);
  check_int "no moveToFuture in sync mode" 0
    (s.Ava3.Cluster.mtf_data_access + s.Ava3.Cluster.mtf_commit_time)

(* Four-version mode really retains a fourth version and never makes
   Phase 2 wait for queries. *)
let test_four_version_phase2_no_wait () =
  let engine = Sim.Engine.create ~seed:31L () in
  let db =
    Baseline.Ava3_db.create ~engine ~config:Baseline.Ava3_db.four_version
      ~advancement_period:0.0 ~nodes:1 ()
  in
  Baseline.Ava3_db.load db ~node:0 [ ("x", 0) ];
  let cluster = Baseline.Ava3_db.cluster db in
  let advanced_at = ref infinity and query_done_at = ref infinity in
  (* Long-running query on version 0. *)
  Sim.Engine.spawn engine (fun () ->
      ignore
        (Ava3.Cluster.run_query cluster ~root:0
           ~reads:(List.init 400 (fun _ -> (0, "x"))));
      query_done_at := Sim.Engine.now engine);
  Sim.Engine.schedule engine ~delay:1.0 (fun () ->
      ignore
        (Ava3.Cluster.run_update cluster ~root:0
           ~ops:[ Ava3.Update_exec.Write { node = 0; key = "x"; value = 1 } ]));
  Sim.Engine.schedule engine ~delay:5.0 (fun () ->
      match Ava3.Cluster.advance_and_wait cluster ~coordinator:0 with
      | `Completed _ -> advanced_at := Sim.Engine.now engine
      | `Busy -> Alcotest.fail "busy");
  Sim.Engine.run engine;
  check_bool "advancement did not wait for the long query" true
    (!advanced_at < !query_done_at)

let () =
  Alcotest.run "baseline"
    [
      ( "workload",
        [
          Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
          Alcotest.test_case "zipf uniform" `Quick test_zipf_uniform;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "keyspace" `Quick test_keyspace;
        ] );
      ( "driver",
        [
          Alcotest.test_case "ava3" `Quick test_driver_ava3;
          Alcotest.test_case "ava3 tree mode" `Quick test_driver_ava3_tree_mode;
          Alcotest.test_case "s2pl" `Quick test_driver_s2pl;
          Alcotest.test_case "two-version" `Quick test_driver_two_version;
          Alcotest.test_case "mvcc" `Quick test_driver_mvcc;
          Alcotest.test_case "four-version" `Quick test_driver_four_version;
        ] );
      ( "contrasts",
        [
          Alcotest.test_case "query interference" `Quick
            test_contrast_query_interference;
          Alcotest.test_case "mvcc chain growth" `Quick test_contrast_mvcc_growth;
          Alcotest.test_case "sync advancement aborts" `Quick
            test_contrast_sync_advancement_aborts;
          Alcotest.test_case "four-version phase2 no wait" `Quick
            test_four_version_phase2_no_wait;
        ] );
    ]
