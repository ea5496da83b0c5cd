(* Integration tests of the experiment harness: the Table 1 and Figure 1
   reproductions must pass their own checks, and the quantitative
   experiments must show the paper's claimed shapes. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let no_violations what = Alcotest.(check (list string)) what []

(* {1 Table 1} *)

let test_table1_no_undo () =
  let r = Dbsim.Table1.run ~scheme:Wal.Scheme.No_undo () in
  no_violations "table1 under no-undo" r.Dbsim.Table1.violations;
  check_bool "events recorded" true (List.length r.Dbsim.Table1.events > 20)

let test_table1_undo_redo () =
  let r = Dbsim.Table1.run ~scheme:Wal.Scheme.Undo_redo () in
  no_violations "table1 under undo-redo" r.Dbsim.Table1.violations

let test_table1_renders () =
  let r = Dbsim.Table1.run () in
  let s = Dbsim.Table1.render r in
  check_bool "mentions moveToFuture" true
    (String.length s > 500
    &&
    let needle = "moveToFuture" in
    let rec scan i =
      i + String.length needle <= String.length s
      && (String.sub s i (String.length needle) = needle || scan (i + 1))
    in
    scan 0)

(* {1 Figure 1} *)

let test_figure1_base () =
  let f = Dbsim.Figure1.run () in
  no_violations "figure1 base" f.Dbsim.Figure1.violations;
  let t = f.Dbsim.Figure1.timings in
  check_bool "phases ordered" true
    (t.Dbsim.Figure1.advancement_started < t.Dbsim.Figure1.phase1_complete
    && t.Dbsim.Figure1.phase1_complete < t.Dbsim.Figure1.phase2_complete
    && t.Dbsim.Figure1.phase2_complete <= t.Dbsim.Figure1.gc_complete)

let test_figure1_eager () =
  let f = Dbsim.Figure1.run ~eager_handoff:true () in
  no_violations "figure1 eager" f.Dbsim.Figure1.violations

let test_figure1_durations_scale () =
  (* Doubling the long query's length stretches Phase 2 accordingly. *)
  let f1 = Dbsim.Figure1.run ~long_query_duration:60.0 () in
  let f2 = Dbsim.Figure1.run ~long_query_duration:120.0 () in
  let span f =
    f.Dbsim.Figure1.timings.Dbsim.Figure1.phase2_complete
    -. f.Dbsim.Figure1.timings.Dbsim.Figure1.phase1_complete
  in
  check_bool "phase2 tracks query length" true (span f2 > span f1 +. 30.0)

(* {1 Experiments}

   Each test runs an experiment (often shrunk) and reads its table by
   column header, exactly as the printed table shows it. *)

module E = Dbsim.Experiment

let value = E.value

(* The row whose first column reads [name]. *)
let row_named (tb : E.table) name =
  let rec find i =
    if i >= List.length tb.cells then Alcotest.failf "no row %s" name
    else if E.text tb ~row:i (List.hd tb.header) = name then i
    else find (i + 1)
  in
  find 0

let test_invariants_clean () =
  let tb = E.run (E.invariants ~nodes:[ 3 ] ~duration:600.0 ()) in
  check_int "no violations" 0 (int_of_float (value tb ~row:0 "violations"));
  check_bool "work happened" true
    (value tb ~row:0 "commits" > 50.0 && value tb ~row:0 "advancements" > 3.0);
  check_bool "three version bound" true (value tb ~row:0 "max-versions" <= 3.0)

let test_staleness_monotone () =
  let tb = E.run (E.staleness ~periods:[ 50.0; 200.0 ] ~eager:[ false ] ()) in
  check_bool "staleness grows with period" true
    (value tb ~row:1 "mean" > value tb ~row:0 "mean" +. 10.0);
  check_bool "staleness bounded by period + txn time" true
    (value tb ~row:0 "max" < 3.0 *. value tb ~row:0 "period")

let test_staleness_bound_optimisation () =
  let tb = E.run (E.publish_lag ~long_txn_duration:80.0 ()) in
  let plain = value tb ~row:0 "lag (base)" in
  check_bool "plain lag tracks the long transaction" true
    (plain > 0.6 *. value tb ~row:0 "long txn");
  check_bool "eager hand-off cuts the lag" true
    (value tb ~row:0 "lag (eager hand-off)" < plain /. 2.0)

let test_comparison_shapes () =
  let tb = E.run (E.comparison ~duration:800.0 ()) in
  let get name column = value tb ~row:(row_named tb name) column in
  (* Who wins and why — the shape of the paper's §9 comparison table. *)
  check_bool "ava3 caps versions at 3" true (get "ava3" "max-vers" <= 3.0);
  check_bool "fourv needs an extra version slot" true
    (get "four-version-sync" "max-vers" <= 4.0);
  check_bool "mvcc grows beyond three versions" true
    (get "mvcc-unbounded" "max-vers" > 3.0);
  check_bool "s2pl suffers query interference" true
    (get "s2pl" "qry p95" > get "ava3" "qry p95");
  check_bool "s2pl interference is lock waiting" true
    (get "s2pl" "interference"
    > 10.0 *. Float.max 1.0 (get "ava3" "interference"));
  check_bool "two-version delays writer commits" true
    (get "two-version" "interference" > 0.0);
  check_bool "only ava3/fourv read stale data" true
    (get "ava3" "staleness" > 0.0 && get "mvcc-unbounded" "staleness" = 0.0)

let test_piggyback_targeted () =
  let tb = E.run (E.piggyback ()) in
  check_bool "plain straddlers need commit-time repair" true
    (value tb ~row:0 "commit-mtf (plain)"
    >= value tb ~row:0 "staged straddlers" /. 2.0);
  check_int "piggyback eliminates them" 0
    (int_of_float (value tb ~row:0 "commit-mtf (piggyback)"))

let test_centralized_trade () =
  let tb = E.run (E.centralized ()) in
  check_bool "ava3 keeps fewer steady versions" true
    (value tb ~row:0 "steady versions" < value tb ~row:1 "steady versions");
  check_bool "fourv advances faster" true
    (value tb ~row:1 "adv latency (mean)"
    < value tb ~row:0 "adv latency (mean)");
  check_bool "both ran advancements" true
    (value tb ~row:0 "advancements" >= 5.0
    && value tb ~row:1 "advancements" >= 5.0)

let test_sync_advancement_aborts () =
  let tb = E.run (E.sync_aborts ()) in
  let aborts name =
    value tb ~row:(row_named tb name) "advancement-induced aborts"
  in
  check_int "ava3 advancement aborts nothing" 0 (int_of_float (aborts "ava3"));
  check_bool "synchronous scheme aborts straddlers" true
    (aborts "four-version-sync" > 0.0)

let test_ablations_consistent () =
  let tb = E.run (E.ablations ~duration:500.0 ()) in
  List.iteri
    (fun row _ ->
      check_int "same workload commits"
        (int_of_float (value tb ~row:0 "commits"))
        (int_of_float (value tb ~row "commits")))
    tb.cells;
  check_bool "root-only counters cut latch work" true
    (value tb ~row:(row_named tb "+root-only counters (§10)") "latches"
    < value tb ~row:0 "latches")

let test_gc_cost_rules () =
  let tb = E.run (E.gc_cost ()) in
  let renumber = row_named tb "renumber (paper)"
  and in_place = row_named tb "in-place" in
  check_bool "paper rule scans everything" true
    (value tb ~row:renumber "items visited"
    = value tb ~row:renumber "full-scan equivalent");
  check_bool "in-place rule visits far less" true
    (value tb ~row:in_place "items visited" *. 4.0
    < value tb ~row:in_place "full-scan equivalent")

let test_tree_vs_flat_latency () =
  let tb = E.run (E.tree_vs_flat ()) in
  let last = List.length tb.cells - 1 in
  List.iteri
    (fun row _ ->
      if value tb ~row "remote nodes" >= 2.0 then
        check_bool "tree beats flat at fanout >= 2" true
          (value tb ~row "tree latency" < value tb ~row "flat latency"))
    tb.cells;
  (* Tree latency stays flat while flat grows linearly. *)
  check_bool "tree latency constant in fanout" true
    (value tb ~row:last "tree latency" < value tb ~row:0 "tree latency" +. 2.0);
  check_bool "flat latency grows" true
    (value tb ~row:last "flat latency" > 3.0 *. value tb ~row:0 "flat latency")

(* The cross-row self-checks must still trip: a row list doctored so one
   row's counter drifts fails the check that the real rows pass. *)
let doctor (tb : E.table) column =
  let bump row =
    List.map2
      (fun h cell ->
        match cell with E.Int n when h = column -> E.Int (n + 1) | cell -> cell)
      tb.header row
  in
  match tb.cells with
  | first :: second :: rest -> { tb with cells = first :: bump second :: rest }
  | _ -> Alcotest.fail "need two rows to doctor"

let trips e tb column =
  match E.check e (doctor tb column) with
  | () -> Alcotest.failf "check passed a doctored %s column" column
  | exception Failure _ -> ()

let test_analytical_check_trips () =
  let e = E.analytical ~horizon:300.0 () in
  let tb = E.run e in
  E.check e tb;
  List.iter (trips e tb)
    [ "commits"; "aborts"; "queries ok"; "scans"; "joins"; "violations" ]

let test_session_check_trips () =
  let e = E.session_retry ~horizon:300.0 () in
  let tb = E.run e in
  E.check e tb;
  List.iter (trips e tb) [ "committed"; "failed"; "violations" ]

(* {1 Serializability checking (Theorem 6.2, executable)} *)

let test_serializability_default () =
  let v = Dbsim.Serial_check.check () in
  Alcotest.(check (list string)) "no serialization anomalies" []
    v.Dbsim.Serial_check.errors;
  Alcotest.(check bool) "meaningful history" true
    (v.Dbsim.Serial_check.transactions_checked > 30
    && v.Dbsim.Serial_check.queries_checked > 10)

let prop_serializable_histories =
  QCheck.Test.make ~name:"random histories replay serially (Theorem 6.2)"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let v = Dbsim.Serial_check.check ~seed:(Int64.of_int seed) () in
      match v.Dbsim.Serial_check.errors with
      | [] -> true
      | e :: _ -> QCheck.Test.fail_reportf "serialization anomaly: %s" e)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "dbsim"
    [
      ( "table1",
        [
          Alcotest.test_case "no-undo scheme" `Quick test_table1_no_undo;
          Alcotest.test_case "undo-redo scheme" `Quick test_table1_undo_redo;
          Alcotest.test_case "renders" `Quick test_table1_renders;
        ] );
      ( "figure1",
        [
          Alcotest.test_case "base protocol" `Quick test_figure1_base;
          Alcotest.test_case "eager hand-off" `Quick test_figure1_eager;
          Alcotest.test_case "durations scale" `Quick test_figure1_durations_scale;
        ] );
      ( "serializability",
        [
          Alcotest.test_case "default run" `Quick test_serializability_default;
        ]
        @ qc [ prop_serializable_histories ] );
      ( "experiments",
        [
          Alcotest.test_case "E3 invariants clean" `Slow test_invariants_clean;
          Alcotest.test_case "E4 staleness monotone" `Slow test_staleness_monotone;
          Alcotest.test_case "E4 bound optimisation" `Quick
            test_staleness_bound_optimisation;
          Alcotest.test_case "E5 comparison shapes" `Slow test_comparison_shapes;
          Alcotest.test_case "E6 piggyback targeted" `Quick test_piggyback_targeted;
          Alcotest.test_case "E7 centralized trade" `Quick test_centralized_trade;
          Alcotest.test_case "E7 sync advancement aborts" `Slow
            test_sync_advancement_aborts;
          Alcotest.test_case "E8a ablations consistent" `Slow
            test_ablations_consistent;
          Alcotest.test_case "E8b gc cost rules" `Quick test_gc_cost_rules;
          Alcotest.test_case "E8c tree vs flat" `Quick test_tree_vs_flat_latency;
          Alcotest.test_case "E14 check trips" `Quick
            test_analytical_check_trips;
          Alcotest.test_case "E15 check trips" `Quick test_session_check_trips;
        ] );
    ]
