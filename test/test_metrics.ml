(* Sim.Metrics registry: per-node counters, log2-bucketed histograms,
   immutable snapshots and their JSON rendering — plus the Dbsim.Report
   sink the experiment drivers record into. *)

module M = Sim.Metrics

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))
let check_string = Alcotest.(check string)

let test_counters_and_totals () =
  let m = M.create ~nodes:3 in
  check_int "node count" 3 (M.node_count m);
  M.record_commit m ~node:0;
  M.record_commit m ~node:2;
  M.record_abort m ~node:1 `Deadlock;
  M.record_abort m ~node:1 (`Rpc_timeout 2);
  M.record_abort m ~node:0 (`Node_down 1);
  M.record_abort m ~node:2 `Version_mismatch;
  M.record_root_down m ~node:0;
  M.record_root_down m ~node:0;
  M.record_query m ~node:2;
  M.record_mtf m ~node:0 ~at_commit:false;
  M.record_mtf m ~node:0 ~at_commit:true;
  M.record_version_mismatch m ~node:1;
  M.record_advancement m ~node:1;
  M.record_rpc_call m ~node:0;
  M.record_rpc_timeout m ~node:0;
  check_int "commits" 2 (M.total_commits m);
  check_int "aborts exclude root-down rejections" 4 (M.total_aborts m);
  check_int "root-down rejections" 2 (M.total_root_down m);
  check_int "queries" 1 (M.total_queries m);
  check_int "mtf at data access" 1 (M.total_mtf_data_access m);
  check_int "mtf at commit" 1 (M.total_mtf_commit_time m);
  check_int "version mismatches" 1 (M.total_version_mismatches m);
  check_int "advancements" 1 (M.total_advancements m);
  check_int "rpc calls" 1 (M.total_rpc_calls m);
  check_int "rpc timeouts" 1 (M.total_rpc_timeouts m);
  let n1 = List.nth (M.snapshot m) 1 in
  check_int "node tag" 1 n1.M.node;
  check_int "n1 deadlock aborts" 1 n1.M.aborts_deadlock;
  check_int "n1 timeout aborts" 1 n1.M.aborts_rpc_timeout;
  check_int "n1 aborts_total" 2 (M.aborts_total n1)

let test_bad_node_rejected () =
  let m = M.create ~nodes:2 in
  let rejected f = match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check_bool "negative node" true (rejected (fun () -> M.record_commit m ~node:(-1)));
  check_bool "node beyond range" true (rejected (fun () -> M.record_query m ~node:2));
  check_bool "empty registry" true
    (match M.create ~nodes:0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Bucket 0 holds exact zeros; a value v with frexp exponent e lands in
   the bucket labelled le = 2^e; the exponent clamps at 25, but true
   extremes survive in min/max. *)
let test_histogram_buckets () =
  let m = M.create ~nodes:1 in
  M.record_rpc_latency m ~node:0 0.0;
  M.record_rpc_latency m ~node:0 0.75;
  M.record_rpc_latency m ~node:0 3.0;
  M.record_rpc_latency m ~node:0 3.5;
  M.record_rpc_latency m ~node:0 1e12;
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
  M.record_rpc_latency m ~node:0 (-0.5);
  M.record_rpc_latency m ~node:0 (-2.0);
  M.record_rpc_latency m ~node:0 0.0;
  M.record_rpc_latency m ~node:0 0.75;
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
  M.record_commit a ~node:0;
  M.record_commit b ~node:0;
  M.record_commit b ~node:1;
  M.record_abort b ~node:1 `Deadlock;
  M.record_rpc_latency a ~node:0 1.5;
  M.record_rpc_latency b ~node:0 3.0;
  M.record_rpc_latency b ~node:0 (-1.0);
  M.record_disk_force b ~node:1 ~records:7;
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
  M.record_commit m ~node:0;
  let snap = M.snapshot m in
  M.record_commit m ~node:0;
  M.record_rpc_latency m ~node:0 1.5;
  check_int "old snapshot unchanged" 1 (List.hd snap).M.commits;
  check_int "old histogram unchanged" 0 (List.hd snap).M.rpc_latency.M.count;
  check_int "registry moved on" 2 (M.total_commits m)

let test_json () =
  let m = M.create ~nodes:2 in
  M.record_commit m ~node:0;
  M.record_abort m ~node:0 `Deadlock;
  M.record_phase1_duration m ~node:1 3.0;
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
  M.record_commit m ~node:0;
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
