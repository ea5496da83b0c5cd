(* Config.validate: every nonsensical knob class is rejected with
   Config.Invalid, sane configs (including the defaults every
   experiment starts from) pass, and the check is wired into
   Cluster.create so no simulator entry point can run on garbage. *)

module C = Ava3.Config

let check_bool = Alcotest.(check bool)

let contains hay needle =
  let n = String.length needle and len = String.length hay in
  let rec go i = i + n <= len && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let rejected config =
  match C.validate config with
  | () -> false
  | exception C.Invalid _ -> true

let test_default_valid () =
  check_bool "default config passes" false (rejected C.default)

let test_tree_arity () =
  check_bool "negative tree_arity rejected" true
    (rejected { C.default with tree_arity = -1 });
  check_bool "flat (0) fine" false (rejected { C.default with tree_arity = 0 });
  check_bool "tree-8 fine" false (rejected { C.default with tree_arity = 8 })

let test_rpc_timeout () =
  check_bool "zero timeout rejected" true
    (rejected { C.default with rpc_timeout = 0.0 });
  check_bool "negative timeout rejected" true
    (rejected { C.default with rpc_timeout = -5.0 });
  check_bool "nan timeout rejected" true
    (rejected { C.default with rpc_timeout = Float.nan });
  check_bool "infinity means no timeout" false
    (rejected { C.default with rpc_timeout = infinity });
  check_bool "finite positive fine" false
    (rejected { C.default with rpc_timeout = 25.0 })

let test_network_costs () =
  check_bool "negative send_occupancy rejected" true
    (rejected { C.default with send_occupancy = -0.1 });
  check_bool "nan send_occupancy rejected" true
    (rejected { C.default with send_occupancy = Float.nan });
  check_bool "negative rpc_batch_window rejected" true
    (rejected { C.default with rpc_batch_window = -1.0 });
  check_bool "zero costs fine" false
    (rejected { C.default with send_occupancy = 0.0; rpc_batch_window = 0.0 })

let test_durability_knobs () =
  check_bool "negative disk_force_latency rejected" true
    (rejected { C.default with disk_force_latency = -0.5 });
  check_bool "infinite disk_force_latency rejected" true
    (rejected { C.default with disk_force_latency = infinity });
  check_bool "negative group_commit_window rejected" true
    (rejected { C.default with group_commit_window = -1.0 });
  check_bool "zero-batch group commit rejected" true
    (rejected { C.default with group_commit_batch = 0 });
  check_bool "negative batch rejected" true
    (rejected { C.default with group_commit_batch = -3 });
  check_bool "real durability config fine" false
    (rejected
       {
         C.default with
         disk_force_latency = 0.4;
         group_commit_window = 1.0;
         group_commit_batch = 8;
       })

let test_service_times () =
  check_bool "negative read_service_time rejected" true
    (rejected { C.default with read_service_time = -0.1 });
  check_bool "negative write_service_time rejected" true
    (rejected { C.default with write_service_time = -0.1 });
  check_bool "free (zero-cost) services fine" false
    (rejected
       { C.default with read_service_time = 0.0; write_service_time = 0.0 })

let test_advancement_retry () =
  check_bool "zero retry period rejected" true
    (rejected { C.default with advancement_retry = 0.0 });
  check_bool "negative retry rejected" true
    (rejected { C.default with advancement_retry = -1.0 });
  check_bool "infinite retry rejected" true
    (rejected { C.default with advancement_retry = infinity })

let test_partition_aware_any_arity () =
  check_bool "partition_aware at arity 0 fine" false
    (rejected { C.default with partition_aware = true; tree_arity = 0 });
  check_bool "partition_aware with tree fine" false
    (rejected { C.default with partition_aware = true; tree_arity = 4 })

let test_replication_knobs () =
  check_bool "negative replicas rejected" true
    (rejected { C.default with replicas = -1 });
  check_bool "replicas = 0 fine" false (rejected { C.default with replicas = 0 });
  check_bool "replicas = 2 fine" false (rejected { C.default with replicas = 2 });
  check_bool "replicas with tree rounds fine" false
    (rejected { C.default with replicas = 1; tree_arity = 4 });
  check_bool "replicas with the relay-ack-early twin fine" false
    (rejected
       {
         C.default with
         replicas = 1;
         tree_arity = 2;
         mutant = Some Relay_ack_early;
       });
  check_bool "zero catch-up timeout rejected" true
    (rejected { C.default with replica_catchup_timeout = 0.0 });
  check_bool "negative catch-up timeout rejected" true
    (rejected { C.default with replica_catchup_timeout = -3.0 });
  check_bool "nan catch-up timeout rejected" true
    (rejected { C.default with replica_catchup_timeout = Float.nan });
  check_bool "infinite catch-up timeout rejected" true
    (rejected { C.default with replica_catchup_timeout = infinity });
  check_bool "ack-early without replicas rejected" true
    (rejected { C.default with mutant = Some Replica_ack_early });
  check_bool "ack-early twin with replicas fine" false
    (rejected
       { C.default with replicas = 1; mutant = Some Replica_ack_early })

let test_session_knobs () =
  check_bool "negative max_retries rejected" true
    (rejected { C.default with max_retries = -1 });
  check_bool "zero retries fine (no automatic retry)" false
    (rejected { C.default with max_retries = 0 });
  check_bool "negative backoff base rejected" true
    (rejected { C.default with retry_backoff_base = -1.0 });
  check_bool "nan backoff base rejected" true
    (rejected { C.default with retry_backoff_base = Float.nan });
  check_bool "infinite backoff base rejected" true
    (rejected { C.default with retry_backoff_base = infinity });
  check_bool "zero backoff base fine (immediate retries)" false
    (rejected { C.default with retry_backoff_base = 0.0 });
  check_bool "leak twin knob is a valid (deliberately broken) config" false
    (rejected { C.default with mutant = Some Savepoint_leak })

let test_mutant_preconditions () =
  let gc = { C.default with mutant = Some Gc_ack_early } in
  let relay = { C.default with mutant = Some Relay_ack_early } in
  check_bool "group-commit ack-early without a window rejected" true
    (rejected gc);
  check_bool "group-commit ack-early with a window fine" false
    (rejected { gc with group_commit_window = 3.0 });
  check_bool "relay ack-early on flat rounds rejected" true (rejected relay);
  check_bool "relay ack-early with a relay tree fine" false
    (rejected { relay with tree_arity = 1 });
  check_bool "index twin needs nothing" false
    (rejected { C.default with mutant = Some Index_skip_visibility })

let test_message_names_knob () =
  (* The error text must name the offending knob so a CLI user can act
     on it. *)
  let msg config =
    match C.validate config with
    | () -> ""
    | exception C.Invalid m -> m
  in
  check_bool "names tree_arity" true
    (contains (msg { C.default with tree_arity = -2 }) "tree_arity");
  check_bool "names rpc_timeout" true
    (contains (msg { C.default with rpc_timeout = 0.0 }) "rpc_timeout");
  check_bool "names group_commit_window" true
    (contains
       (msg { C.default with group_commit_window = -1.0 })
       "group_commit_window");
  check_bool "names replicas" true
    (contains (msg { C.default with replicas = -1 }) "replicas");
  check_bool "names replica_catchup_timeout" true
    (contains
       (msg { C.default with replica_catchup_timeout = 0.0 })
       "replica_catchup_timeout");
  List.iter
    (fun m ->
      let name = C.mutant_name m in
      check_bool ("names " ^ name) true
        (contains (msg { C.default with mutant = Some m }) name))
    [ Replica_ack_early; Gc_ack_early; Relay_ack_early ];
  check_bool "names max_retries" true
    (contains (msg { C.default with max_retries = -1 }) "max_retries");
  check_bool "names retry_backoff_base" true
    (contains
       (msg { C.default with retry_backoff_base = -1.0 })
       "retry_backoff_base")

let test_pp_names_mutant () =
  let pp c = Format.asprintf "%a" C.pp c in
  List.iter
    (fun m ->
      let name = C.mutant_name m in
      check_bool ("pp shows " ^ name) true
        (contains (pp { C.default with mutant = Some m }) ("mutant=" ^ name)))
    [ Gc_ack_early; Relay_ack_early; Replica_ack_early; Index_skip_visibility;
      Savepoint_leak ];
  check_bool "pp shows no mutant by default" false
    (contains (pp C.default) "mutant")

let test_cluster_create_validates () =
  (* The wiring, not just the function: Cluster.create must refuse a bad
     config before any setup. *)
  let engine = Sim.Engine.create ~trace:false () in
  let bad = { C.default with tree_arity = -1 } in
  check_bool "Cluster.create rejects invalid config" true
    (match Ava3.Cluster.create ~engine ~config:bad ~nodes:2 () with
    | (_ : int Ava3.Cluster.t) -> false
    | exception C.Invalid _ -> true);
  (* And a valid one still builds. *)
  let (_ : int Ava3.Cluster.t) =
    Ava3.Cluster.create ~engine ~config:C.default ~nodes:2 ()
  in
  ()

let () =
  Alcotest.run "config"
    [
      ( "validate",
        [
          Alcotest.test_case "default valid" `Quick test_default_valid;
          Alcotest.test_case "tree_arity" `Quick test_tree_arity;
          Alcotest.test_case "rpc_timeout" `Quick test_rpc_timeout;
          Alcotest.test_case "network costs" `Quick test_network_costs;
          Alcotest.test_case "durability knobs" `Quick test_durability_knobs;
          Alcotest.test_case "service times" `Quick test_service_times;
          Alcotest.test_case "advancement retry" `Quick test_advancement_retry;
          Alcotest.test_case "partition-aware at any arity" `Quick
            test_partition_aware_any_arity;
          Alcotest.test_case "replication knobs" `Quick test_replication_knobs;
          Alcotest.test_case "session knobs" `Quick test_session_knobs;
          Alcotest.test_case "mutant preconditions" `Quick
            test_mutant_preconditions;
          Alcotest.test_case "errors name the knob" `Quick
            test_message_names_knob;
          Alcotest.test_case "pp names the mutant" `Quick test_pp_names_mutant;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "Cluster.create validates" `Quick
            test_cluster_create_validates;
        ] );
    ]
