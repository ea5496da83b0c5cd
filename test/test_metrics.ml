(* Sim.Metrics registry: per-node counters, log2-bucketed histograms,
   immutable snapshots and their JSON rendering — plus the Dbsim.Report
   sink the experiment drivers record into. *)

module M = Sim.Metrics

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let check_string = Alcotest.(check string)

let record = M.record
let commit m root = record m (Sim.Event.Commit { txn = 1; root; version = 1 })
let abort m root reason = record m (Sim.Event.Abort { txn = 1; root; reason })
let rtt m x = record m (Sim.Event.Rpc_reply { src = 0; dst = 1; rtt = x })
let total f m = List.fold_left (fun acc n -> acc + f n) 0 (M.snapshot m)

let test_counters_and_totals () =
  let m = M.create ~nodes:3 in
  check_int "node count" 3 (List.length (M.snapshot m));
  commit m 0;
  commit m 2;
  abort m 1 `Deadlock;
  abort m 1 (`Rpc_timeout 2);
  abort m 0 (`Node_down 1);
  abort m 2 `Version_mismatch;
  record m (Root_down { root = 0 });
  record m (Root_down { root = 0 });
  record m (Query_done { query = 5; root = 2; kind = `Read });
  record m
    (Mtf { txn = 1; site = 0; version = 2; at_commit = false; copied = 0 });
  record m
    (Mtf { txn = 1; site = 0; version = 2; at_commit = true; copied = 3 });
  record m (Backup_read { part = 0; site = 2 });
  record m (Backup_demoted { part = 0; site = 2; why = "crash" });
  record m (Promoted { part = 0; site = 2; was = 0; u = 2; q = 1; g = 0 });
  record m (Version_mismatch { txn = 1; root = 1 });
  record m (Phase2_done { site = 1; newg = 0; duration = 2.0 });
  record m (Rpc_call { src = 0; dst = 1 });
  record m (Rpc_timeout { src = 0; dst = 1 });
  (* Events without a counter leave the registry untouched. *)
  record m (Sub_start { txn = 1; site = 0; version = 1 });
  record m (Set_u { site = 1; u = 2 });
  check_int "commits" 2 (M.total_commits m);
  check_int "aborts exclude root-down rejections" 4 (M.total_aborts m);
  check_int "root-down rejections" 2
    (total (fun n -> n.M.root_down_rejections) m);
  check_int "queries" 1 (M.total_queries m);
  check_int "mtf at data access" 1 (M.total_mtf_data_access m);
  check_int "mtf at commit" 1 (M.total_mtf_commit_time m);
  check_int "mtf items copied" 3 (M.total_mtf_items_copied m);
  check_int "backup reads" 1 (M.total_backup_reads m);
  check_int "demotions" 1 (M.total_demotions m);
  check_int "promotions" 1 (M.total_promotions m);
  check_int "version mismatches" 1 (M.total_version_mismatches m);
  check_int "advancements" 1 (M.total_advancements m);
  check_int "rpc calls" 1 (total (fun n -> n.M.rpc_calls) m);
  check_int "rpc timeouts" 1 (total (fun n -> n.M.rpc_timeouts) m);
  let n1 = List.nth (M.snapshot m) 1 in
  check_int "node tag" 1 n1.M.node;
  check_int "n1 deadlock aborts" 1 n1.M.aborts_deadlock;
  check_int "n1 timeout aborts" 1 n1.M.aborts_rpc_timeout;
  check_int "n1 aborts_total" 2 (M.aborts_total n1);
  check_int "phase 2 duration recorded" 1 n1.M.phase2_duration.M.count

let test_bad_node_rejected () =
  let m = M.create ~nodes:2 in
  let rejected f = match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "negative node" true (rejected (fun () -> commit m (-1)));
  check_bool "node beyond range" true
    (rejected (fun () ->
         record m (Query_done { query = 1; root = 2; kind = `Read })));
  check_bool "empty registry" true
    (match M.create ~nodes:0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Bucket 0 holds exact zeros; a value v with frexp exponent e lands in
   the bucket labelled le = 2^e; the exponent clamps at 25, but true
   extremes survive in min/max. *)
let test_histogram_buckets () =
  let m = M.create ~nodes:1 in
  rtt m 0.0;
  rtt m 0.75;
  rtt m 3.0;
  rtt m 3.5;
  rtt m 1e12;
  let h = (List.hd (M.snapshot m)).M.rpc_latency in
  check_int "count" 5 h.M.count;
  check_float "sum" (0.0 +. 0.75 +. 3.0 +. 3.5 +. 1e12) h.M.sum;
  check_float "min" 0.0 h.M.min;
  check_float "max survives clamping" 1e12 h.M.max;
  Alcotest.(check (list (pair (float 0.0) int)))
    "buckets: zeros, (1/2,1], (2,4], clamp top"
    [ (0.0, 1); (1.0, 1); (4.0, 2); (33554432.0, 1) ]
    h.M.buckets

(* Regression: negative samples used to be filed into bucket 0, which is
   reserved for exact zeros.  They must land in the [neg] underflow tally
   instead — while still counting toward count/sum/min/max. *)
let test_negative_underflow () =
  let m = M.create ~nodes:1 in
  rtt m (-0.5);
  rtt m (-2.0);
  rtt m 0.0;
  rtt m 0.75;
  let h = (List.hd (M.snapshot m)).M.rpc_latency in
  check_int "count includes negatives" 4 h.M.count;
  check_int "two underflow samples" 2 h.M.neg;
  check_float "sum includes negatives" (-1.75) h.M.sum;
  check_float "min is the true extreme" (-2.0) h.M.min;
  Alcotest.(check (list (pair (float 0.0) int)))
    "exact-zero bucket holds only the exact zero"
    [ (0.0, 1); (1.0, 1) ]
    h.M.buckets;
  (* And the underflow tally reaches the JSON dump. *)
  let json = M.to_json (M.snapshot m) in
  let contains needle =
    let n = String.length needle and len = String.length json in
    let rec go i = i + n <= len && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "neg in JSON" true (contains {|"neg":2|})

let test_merge_into () =
  let a = M.create ~nodes:2 and b = M.create ~nodes:2 in
  commit a 0;
  commit b 0;
  commit b 1;
  abort b 1 `Deadlock;
  rtt a 1.5;
  rtt b 3.0;
  rtt b (-1.0);
  record b (Disk_force { site = 1; records = 7 });
  M.merge_into ~into:a b;
  check_int "commits summed" 3 (M.total_commits a);
  check_int "aborts summed" 1 (M.total_aborts a);
  check_int "records forced" 7 (M.total_records_forced a);
  let h = (List.hd (M.snapshot a)).M.rpc_latency in
  check_int "hist count" 3 h.M.count;
  check_int "hist neg" 1 h.M.neg;
  check_float "hist min" (-1.0) h.M.min;
  check_float "hist max" 3.0 h.M.max;
  Alcotest.(check (list (pair (float 0.0) int)))
    "bucket slots added" [ (2.0, 1); (4.0, 1) ] h.M.buckets;
  (* Source untouched; mismatched node counts rejected. *)
  check_int "src unchanged" 2 (M.total_commits b);
  check_bool "node-count mismatch rejected" true
    (match M.merge_into ~into:a (M.create ~nodes:3) with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_empty_histogram () =
  let h = (List.hd (M.snapshot (M.create ~nodes:1))).M.rpc_latency in
  check_int "count" 0 h.M.count;
  check_float "min is 0 when empty" 0.0 h.M.min;
  check_float "max is 0 when empty" 0.0 h.M.max;
  check_bool "no buckets" true (h.M.buckets = [])

let test_snapshot_immutable () =
  let m = M.create ~nodes:1 in
  commit m 0;
  let snap = M.snapshot m in
  commit m 0;
  rtt m 1.5;
  check_int "old snapshot unchanged" 1 (List.hd snap).M.commits;
  check_int "old histogram unchanged" 0 (List.hd snap).M.rpc_latency.M.count;
  check_int "registry moved on" 2 (M.total_commits m)

let test_json () =
  let m = M.create ~nodes:2 in
  commit m 0;
  abort m 0 `Deadlock;
  record m (Phase1_done { site = 1; newq = 0; duration = 3.0 });
  let json = M.to_json (M.snapshot m) in
  let contains needle =
    let n = String.length needle and len = String.length json in
    let rec go i = i + n <= len && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "two node objects" true (contains {|"node":1|});
  check_bool "commit counted" true (contains {|"commits":1|});
  check_bool "abort breakdown" true (contains {|"deadlock":1|});
  check_bool "abort total" true (contains {|"total":1|});
  check_bool "phase1 bucket le=4" true (contains {|"buckets":[{"le":4,"count":1}]|});
  check_bool "rpc section" true (contains {|"rpc":{"calls":0,"timeouts":0,"latency":|});
  (* No inf/nan can leak into the JSON: empty histograms render 0. *)
  check_bool "no inf" true (not (contains "inf"));
  check_bool "no nan" true (not (contains "nan"))

(* The experiment-side sink: records from any order come back sorted and
   render as one JSON array. *)
let test_report_sink () =
  Dbsim.Report.clear_metrics ();
  let m = M.create ~nodes:1 in
  commit m 0;
  let snap = M.snapshot m in
  Dbsim.Report.record_metrics ~experiment:"E9" ~label:"nodes=2" snap;
  Dbsim.Report.record_metrics ~experiment:"E3" ~label:"b" snap;
  Dbsim.Report.record_metrics ~experiment:"E3" ~label:"a" snap;
  let records = Dbsim.Report.metrics_records () in
  Alcotest.(check (list (pair string string)))
    "sorted by experiment then label"
    [ ("E3", "a"); ("E3", "b"); ("E9", "nodes=2") ]
    (List.map (fun r -> (r.Dbsim.Report.experiment, r.Dbsim.Report.label)) records);
  let json = Dbsim.Report.metrics_to_json records in
  let prefix = {|[{"experiment":"E3","label":"a","nodes":|} in
  check_string "array shape" prefix (String.sub json 0 (String.length prefix));
  Dbsim.Report.clear_metrics ();
  check_bool "cleared" true (Dbsim.Report.metrics_records () = []);
  check_string "empty dump" "[]" (Dbsim.Report.metrics_to_json [])

(* Labels are free text (the E8 ones carry a section sign); the dump must
   stay valid JSON whatever they contain. *)
let test_report_json_escape () =
  let snap = M.snapshot (M.create ~nodes:1) in
  let json =
    Dbsim.Report.metrics_to_json
      [
        {
          Dbsim.Report.experiment = "E8";
          label = "+eager (§8) \"q\" a\\b\nc";
          metrics = snap;
        };
      ]
  in
  let prefix =
    "[{\"experiment\":\"E8\",\"label\":\"+eager (§8) \\\"q\\\" a\\\\b\\nc\",\"nodes\":"
  in
  check_string "escaped label" prefix (String.sub json 0 (String.length prefix))

let () =
  Alcotest.run "metrics"
    [
      ( "registry",
        [
          Alcotest.test_case "counters and totals" `Quick test_counters_and_totals;
          Alcotest.test_case "bad node rejected" `Quick test_bad_node_rejected;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "log2 buckets" `Quick test_histogram_buckets;
          Alcotest.test_case "negative underflow" `Quick test_negative_underflow;
          Alcotest.test_case "merge registries" `Quick test_merge_into;
          Alcotest.test_case "empty histogram" `Quick test_empty_histogram;
          Alcotest.test_case "snapshot immutable" `Quick test_snapshot_immutable;
        ] );
      ( "json",
        [
          Alcotest.test_case "node rendering" `Quick test_json;
          Alcotest.test_case "report sink" `Quick test_report_sink;
          Alcotest.test_case "label escaping" `Quick test_report_json_escape;
        ] );
    ]
