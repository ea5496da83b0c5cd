(* Tests for the schedule explorer (lib/check): it must convict the
   deliberately broken toy store within a bounded schedule count with a
   minimized, replayable counterexample; clear the corrected twin over
   the same schedule space; replay deterministically; and find nothing
   in a bounded exploration of the real protocol. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {1 Convicting the buggy toy store} *)

let test_toy_torn_found () =
  let r = Explorer.explore ~budget:500 Scenarios.toy_torn in
  match r.violation with
  | None -> Alcotest.fail "explorer missed the torn snapshot"
  | Some v ->
      check_bool "reports a torn snapshot" true
        (List.exists
           (fun m ->
             String.length m >= 4 && String.sub m 0 4 = "torn")
           v.v_messages);
      check_bool "counterexample is small" true
        (List.length v.v_decisions <= 4);
      (* Replay the minimized decision vector from scratch: it must
         reproduce the violation. *)
      let decisions =
        List.map (fun (d : Explorer.decision) -> d.index) v.v_decisions
      in
      let out = Explorer.replay ~record_trace:false Scenarios.toy_torn decisions in
      check_bool "minimized counterexample replays to the violation" true
        (out.r_messages <> [])

let test_toy_lost_update_found () =
  let r = Explorer.explore ~budget:500 Scenarios.toy_lost_update in
  match r.violation with
  | None -> Alcotest.fail "explorer missed the lost update"
  | Some v ->
      (* The race is one flipped tie: minimization must get it down to a
         single decision. *)
      check_int "minimized to one decision" 1 (List.length v.v_decisions);
      let out =
        Explorer.replay ~record_trace:false Scenarios.toy_lost_update
          (List.map (fun (d : Explorer.decision) -> d.index) v.v_decisions)
      in
      check_bool "replays to the violation" true (out.r_messages <> [])

(* {1 Clearing the corrected twins} *)

let test_toy_safe_clean () =
  let r = Explorer.explore ~budget:500 Scenarios.toy_safe in
  check_bool "no violation" true (r.violation = None);
  check_bool "space exhausted within budget" true r.stats.exhausted

let test_toy_rmw_safe_clean () =
  let r = Explorer.explore ~budget:500 Scenarios.toy_rmw_safe in
  check_bool "no violation" true (r.violation = None);
  check_bool "space exhausted within budget" true r.stats.exhausted

(* {1 Determinism} *)

let test_replay_deterministic () =
  (* The same decision vector must reproduce the identical final state
     fingerprint, run after run — replayability rests on this. *)
  let decisions = [ 0; 1; 1 ] in
  let fp_of () =
    (Explorer.replay ~record_trace:false Scenarios.toy_safe decisions)
      .r_fingerprint
  in
  let a = fp_of () and b = fp_of () in
  check_bool "fingerprint present" true (a <> None);
  Alcotest.(check bool) "same trace, same fingerprint" true (a = b)

let test_default_schedule_is_empty_vector () =
  let a = (Explorer.replay ~record_trace:false Scenarios.toy_safe []).r_fingerprint
  and b =
    (Explorer.replay ~record_trace:false Scenarios.toy_safe [ 0; 0 ])
      .r_fingerprint
  in
  Alcotest.(check bool)
    "explicit zeros equal the default schedule" true
    (a = b && a <> None)

(* {1 Counterexample files} *)

let test_counterexample_roundtrip () =
  let path = Filename.temp_file "ava3-ce" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Counterexample.save ~path ~scenario:"toy-torn"
        ~decisions:[ (0, "tie(writer|reader)"); (1, "tie(writer|reader)") ]
        ~messages:[ "torn snapshot: x=1 y=0" ];
      let ce = Counterexample.load ~path in
      Alcotest.(check string) "scenario survives" "toy-torn" ce.scenario;
      Alcotest.(check (list int)) "decisions survive" [ 0; 1 ] ce.decisions)

let test_counterexample_end_to_end () =
  (* Find, save, load, replay: the full violation pipeline. *)
  let r = Explorer.explore ~budget:500 Scenarios.toy_torn in
  match r.violation with
  | None -> Alcotest.fail "no violation found"
  | Some v ->
      let path = Filename.temp_file "ava3-ce" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Counterexample.save ~path ~scenario:"toy-torn"
            ~decisions:
              (List.map
                 (fun (d : Explorer.decision) -> (d.index, d.label))
                 v.v_decisions)
            ~messages:v.v_messages;
          let ce = Counterexample.load ~path in
          let sc = Option.get (Scenarios.find ce.scenario) in
          let out = Explorer.replay ~record_trace:false sc ce.decisions in
          check_bool "loaded counterexample reproduces" true
            (out.r_messages <> []))

(* {1 Exploring the real protocol} *)

let test_traced_replay () =
  (* The timeline [check.exe --replay] prints: pins the text of events the
     Table 1 golden never shows (faults, crash, recovery, and the failover
     hook finding no backup in this single-copy cluster). *)
  let sc = Option.get (Scenarios.find "group-commit-crash-buggy") in
  match (Explorer.explore ~budget:300 sc).violation with
  | None -> Alcotest.fail "not convicted within 300 schedules"
  | Some v ->
      let out =
        Explorer.replay sc
          (List.map (fun (d : Explorer.decision) -> d.index) v.v_decisions)
      in
      let times = List.map (fun l -> Scanf.sscanf l "[ %f]" Fun.id) out.r_trace in
      check_bool "time-ordered" true (times = List.sort Float.compare times);
      let has fragment =
        let n = String.length fragment in
        List.exists
          (fun l ->
            let rec go i =
              i + n <= String.length l
              && (String.sub l i n = fragment || go (i + 1))
            in
            go 0)
          out.r_trace
      in
      List.iter
        (fun line -> check_bool line true (has line))
        [
          "] nemesis      crash node0";
          "] crash        node0: crashed";
          "] repl         partition 0: primary site0 down, no backup eligible";
          "] crash        node0: recovered (";
          ": committed in version ";
        ]

let test_race2_clean_small_budget () =
  let r = Explorer.explore ~budget:300 Scenarios.race2 in
  check_bool "no violation in a bounded exploration" true (r.violation = None);
  check_bool "many schedules enumerated" true (r.stats.schedules >= 100);
  check_bool "several choice points per run" true (r.stats.choice_points > 0)

let test_max_depth_cut_not_exhausted () =
  (* mtf-race's full space is 31 schedules; branching at depth 0 only
     leaves alternatives untried, so the search must not claim coverage. *)
  let sc = Option.get (Scenarios.find "mtf-race") in
  let r = Explorer.explore ~max_depth:1 sc in
  check_bool "no violation" true (r.violation = None);
  check_bool "a depth-cut search is not exhausted" false r.stats.exhausted

(* {1 Group-commit durability} *)

let test_group_commit_crash_clean () =
  (* Acks only leave after the disk force: no crash placement may lose an
     acknowledged commit, on any explored schedule. *)
  let r = Explorer.explore ~budget:300 Scenarios.group_commit_crash in
  check_bool "no violation in a bounded exploration" true (r.violation = None);
  check_bool "several schedules enumerated" true (r.stats.schedules >= 50)

(* {1 Session savepoints} *)

let test_savepoint_rollback_clean () =
  (* Rollback releases the scope's locks, so the workload is
     deadlock-free and all three session transactions commit on every
     schedule — the space is small enough to exhaust. *)
  let r = Explorer.explore ~budget:2_000 Scenarios.savepoint_rollback in
  check_bool "no violation" true (r.violation = None);
  check_bool "space exhausted" true r.stats.exhausted

let test_session_dsl_clean () =
  (* The generated DSL program (same generator seed as stress --sessions
     and E15) with its choice points explored: every schedule completes
     and commits it. *)
  let r = Explorer.explore ~budget:2_000 Scenarios.session_dsl in
  check_bool "no violation" true (r.violation = None);
  check_bool "space exhausted" true r.stats.exhausted;
  check_bool "choice points explored" true (r.stats.choice_points > 0)

(* {1 The mutant registry} *)

(* [buggy] is convicted within [budget] schedules and its minimized
   counterexample replays to the violation. *)
let convict buggy budget =
  let name = buggy.Scenario.name in
  match (Explorer.explore ~budget buggy).violation with
  | None -> Alcotest.failf "%s: not convicted within %d schedules" name budget
  | Some v ->
      let out =
        Explorer.replay ~record_trace:false buggy
          (List.map (fun (d : Explorer.decision) -> d.index) v.v_decisions)
      in
      check_bool (name ^ ": minimized counterexample replays") true
        (out.r_messages <> [])

let test_group_commit_crash_buggy_convicted () =
  (* The ack-before-force twin: some schedule crashes the node between a
     commit's enqueue and the batch force, losing an acknowledged commit. *)
  convict (Option.get (Scenarios.find "group-commit-crash-buggy")) 300

let test_savepoint_leak_buggy_convicted () =
  (* The leak twin keeps the scope's locks after rollback: some schedule
     closes the A->x B->y wait cycle and the all-committed oracle
     convicts. *)
  convict (Option.get (Scenarios.find "savepoint-leak-buggy")) 2_000

let test_registry () =
  (* Every deliberately broken twin is convicted within its budget and
     its clean twin explores the same budget without a violation. *)
  List.iter
    (fun { Scenarios.buggy; clean; budget } ->
      convict buggy budget;
      check_bool (clean.Scenario.name ^ ": clean twin clean") true
        ((Explorer.explore ~budget clean).violation = None);
      check_bool (clean.Scenario.name ^ ": clean twin is must-clear") true
        (List.memq clean Scenarios.must_clear))
    Scenarios.registry

(* {1 The multicore backend under the explorer} *)

(* The pin-skipping twin is convicted within its registry budget, and
   the minimized vector replays to the guard's message: a round fits
   between the twin's read of q and its bump. *)
let test_mcore_twin_convicted () =
  let { Scenarios.buggy; budget; _ } =
    List.find
      (fun e ->
        e.Scenarios.buggy.Scenario.name = "mcore-skip-pin-recheck-buggy")
      Scenarios.registry
  in
  match (Explorer.explore ~budget buggy).violation with
  | None -> Alcotest.failf "twin not convicted within %d schedules" budget
  | Some v ->
      let out =
        Explorer.replay ~record_trace:false buggy
          (List.map (fun (d : Explorer.decision) -> d.index) v.v_decisions)
      in
      Alcotest.(check (list string))
        "replay reproduces the guard"
        [ "query version collected under its pin" ]
        out.r_messages

let test_mcore_clean_exhausted () =
  List.iter
    (fun name ->
      let sc = Option.get (Scenarios.find name) in
      let r = Explorer.explore ~budget:20_000 sc in
      check_bool (name ^ ": no violation") true (r.violation = None);
      check_bool (name ^ ": space exhausted") true r.stats.exhausted)
    [ "mcore-query-vs-advance"; "mcore-update-vs-advance" ]

let test_prune_only_skips_converged () =
  (* Pruned and unpruned exploration of an exhaustible space must agree
     on the set of distinct final states. *)
  let a = Explorer.explore ~budget:500 ~prune:true Scenarios.toy_torn
  and b = Explorer.explore ~budget:500 ~prune:false Scenarios.toy_torn in
  check_bool "both convict" true (a.violation <> None && b.violation <> None)

let () =
  Alcotest.run "check"
    [
      ( "toy bugs",
        [
          Alcotest.test_case "torn snapshot found" `Quick test_toy_torn_found;
          Alcotest.test_case "lost update found" `Quick
            test_toy_lost_update_found;
          Alcotest.test_case "safe twin clean" `Quick test_toy_safe_clean;
          Alcotest.test_case "atomic twin clean" `Quick test_toy_rmw_safe_clean;
          Alcotest.test_case "prune agrees with no-prune" `Quick
            test_prune_only_skips_converged;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "replay deterministic" `Quick
            test_replay_deterministic;
          Alcotest.test_case "zeros equal default" `Quick
            test_default_schedule_is_empty_vector;
        ] );
      ( "counterexamples",
        [
          Alcotest.test_case "file roundtrip" `Quick
            test_counterexample_roundtrip;
          Alcotest.test_case "find-save-load-replay" `Quick
            test_counterexample_end_to_end;
          Alcotest.test_case "traced replay timeline" `Quick test_traced_replay;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "race2 clean under small budget" `Quick
            test_race2_clean_small_budget;
          Alcotest.test_case "max-depth cut is not exhausted" `Quick
            test_max_depth_cut_not_exhausted;
          Alcotest.test_case "group-commit crash clean" `Quick
            test_group_commit_crash_clean;
          Alcotest.test_case "savepoint rollback clean" `Quick
            test_savepoint_rollback_clean;
          Alcotest.test_case "session DSL program clean" `Quick
            test_session_dsl_clean;
          Alcotest.test_case "group-commit early-ack convicted" `Quick
            test_group_commit_crash_buggy_convicted;
          Alcotest.test_case "savepoint lock leak convicted" `Quick
            test_savepoint_leak_buggy_convicted;
          Alcotest.test_case "mutant registry convicted" `Quick test_registry;
        ] );
      ( "mcore",
        [
          Alcotest.test_case "pin-skipping twin convicted and replayed" `Quick
            test_mcore_twin_convicted;
          Alcotest.test_case "clean scenarios exhausted" `Quick
            test_mcore_clean_exhausted;
        ] );
    ]
