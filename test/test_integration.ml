(* Cross-module integration and fuzz tests: crash/recovery equivalence,
   advancement under chaos, determinism of whole runs. *)

module Cluster = Ava3.Cluster
module Update = Ava3.Update_exec

let check_bool = Alcotest.(check bool)

(* {1 Crash-recovery equivalence} *)

(* Run a random committed-only workload on one node, snapshot the visible
   state, crash + recover, snapshot again: they must agree.  (Committed-only:
   we stop the workload and let everything finish before crashing.) *)
let prop_recovery_equivalence =
  QCheck.Test.make ~name:"crash recovery preserves exactly the committed state"
    ~count:30
    QCheck.(pair (int_bound 100_000) (int_range 1 40))
    (fun (seed, txns) ->
      let engine = Sim.Engine.create ~seed:(Int64.of_int seed) ~trace:false () in
      let config =
        {
          Ava3.Config.default with
          scheme =
            (if seed mod 2 = 0 then Wal.Scheme.No_undo else Wal.Scheme.Undo_redo);
          read_service_time = 0.1;
          write_service_time = 0.1;
        }
      in
      let db : int Cluster.t = Cluster.create ~engine ~config ~nodes:2 () in
      let sessions = Session.per_partition ~seed:0L db in
      let rng = Sim.Rng.split (Sim.Engine.rng engine) in
      Cluster.load db ~node:0 (List.init 6 (fun i -> (Printf.sprintf "a%d" i, i)));
      Cluster.load db ~node:1 (List.init 6 (fun i -> (Printf.sprintf "b%d" i, i)));
      let key node = Printf.sprintf "%c%d" (if node = 0 then 'a' else 'b') (Sim.Rng.int rng 6) in
      for _ = 1 to txns do
        let delay = Sim.Rng.float rng 200.0 in
        Sim.Engine.schedule engine ~delay (fun () ->
            let root = Sim.Rng.int rng 2 in
            let ops =
              List.init
                (1 + Sim.Rng.int rng 3)
                (fun _ ->
                  let n = Sim.Rng.int rng 2 in
                  match Sim.Rng.int rng 4 with
                  | 0 -> Update.Read { node = n; key = key n }
                  | 1 -> Update.Delete { node = n; key = key n }
                  | _ -> Update.Write { node = n; key = key n; value = Sim.Rng.int rng 1000 })
            in
            ignore (Flat_txn.run sessions.(root) ops))
      done;
      (* A couple of advancements mixed in. *)
      Sim.Engine.schedule engine ~delay:80.0 (fun () ->
          ignore (Cluster.advance db ~coordinator:0));
      Sim.Engine.schedule engine ~delay:160.0 (fun () ->
          ignore (Cluster.advance db ~coordinator:1));
      Sim.Engine.run engine;
      (* Snapshot node 0's VISIBLE state: what queries (at q) and update
         transactions (at u) can read.  Physical version sets may differ
         benignly after recovery — e.g. a dead tombstone kept alive during
         GC by an uncommitted in-place entry — so we compare reads, not
         internals. *)
      let snapshot () =
        let nd = Cluster.node db 0 in
        let store = Ava3.Node_state.store nd in
        List.init 6 (fun i ->
            let k = Printf.sprintf "a%d" i in
            ( Vstore.Store.read_le store k (Ava3.Node_state.q nd),
              Vstore.Store.read_le store k (Ava3.Node_state.u nd),
              Vstore.Store.read_le store k max_int ))
      in
      let before = snapshot () in
      Cluster.crash db ~node:0;
      Cluster.recover db ~node:0;
      Sim.Engine.run engine;
      let after = snapshot () in
      if before <> after then
        QCheck.Test.fail_reportf "state diverged after recovery"
      else true)

(* {1 Chaos: crashes during advancement} *)

let prop_advancement_survives_chaos =
  QCheck.Test.make ~name:"advancement converges despite crashes" ~count:20
    QCheck.(pair (int_bound 100_000) (int_range 0 2))
    (fun (seed, victim) ->
      let engine = Sim.Engine.create ~seed:(Int64.of_int seed) ~trace:false () in
      let config = { Ava3.Config.default with advancement_retry = 25.0 } in
      let db : int Cluster.t = Cluster.create ~engine ~config ~nodes:3 () in
      let rng = Sim.Rng.split (Sim.Engine.rng engine) in
      Cluster.load db ~node:0 [ ("x", 1) ];
      (* Start an advancement, crash a random node at a random moment during
         it, recover later; the round must still complete. *)
      let coordinator = Sim.Rng.int rng 3 in
      Sim.Engine.schedule engine ~delay:5.0 (fun () ->
          ignore (Cluster.advance db ~coordinator));
      let crash_at = 5.0 +. Sim.Rng.float rng 10.0 in
      Sim.Engine.schedule engine ~delay:crash_at (fun () ->
          Cluster.crash db ~node:victim);
      Sim.Engine.schedule engine ~delay:(crash_at +. 40.0) (fun () ->
          Cluster.recover db ~node:victim);
      (* If the victim was the coordinator, its run dies with it; another
         node resumes the stalled round later. *)
      Sim.Engine.schedule engine ~delay:(crash_at +. 80.0) (fun () ->
          ignore (Cluster.advance db ~coordinator:((victim + 1) mod 3)));
      Sim.Engine.run ~until:2000.0 engine;
      let ok = ref true in
      for i = 0 to 2 do
        let nd = Cluster.node db i in
        if Ava3.Node_state.u nd < 2 || Ava3.Node_state.q nd < 1 then ok := false
      done;
      if not !ok then QCheck.Test.fail_reportf "advancement never converged"
      else if Cluster.check_invariants db <> [] then
        QCheck.Test.fail_reportf "invariants violated after chaos"
      else true)

(* {1 Snapshot consistency: conserved ledger}

   Accounts across all nodes start with a fixed total; concurrent transfer
   transactions move money around (two RMW ops, possibly on different
   nodes) while advancements run.  Serializability + snapshot reads mean
   EVERY query must see the exact initial total — a partially-applied
   transfer or a torn snapshot would break the sum. *)
let prop_conserved_ledger =
  QCheck.Test.make ~name:"every query snapshot conserves the ledger total"
    ~count:25
    QCheck.(pair (int_bound 100_000) (int_range 2 4))
    (fun (seed, nodes) ->
      let engine = Sim.Engine.create ~seed:(Int64.of_int seed) ~trace:false () in
      let config =
        { Ava3.Config.default with read_service_time = 0.2; write_service_time = 0.3 }
      in
      let db : int Cluster.t = Cluster.create ~engine ~config ~nodes () in
      let sessions = Session.per_partition ~seed:0L db in
      let accounts_per_node = 4 in
      let initial = 100 in
      let total = nodes * accounts_per_node * initial in
      let account n i = Printf.sprintf "acct-%d-%d" n i in
      for n = 0 to nodes - 1 do
        Cluster.load db ~node:n
          (List.init accounts_per_node (fun i -> (account n i, initial)))
      done;
      let rng = Sim.Rng.split (Sim.Engine.rng engine) in
      let pick () =
        let n = Sim.Rng.int rng nodes in
        (n, account n (Sim.Rng.int rng accounts_per_node))
      in
      (* Transfers. *)
      for _ = 1 to 30 do
        let delay = Sim.Rng.float rng 300.0 in
        Sim.Engine.schedule engine ~delay (fun () ->
            let (n1, a1) = pick () and (n2, a2) = pick () in
            if a1 <> a2 then begin
              let amount = 1 + Sim.Rng.int rng 20 in
              ignore
                (Flat_txn.run sessions.(n1)
                   [
                     Update.Read_modify_write
                       { node = n1; key = a1; f = (fun v -> Option.value v ~default:0 - amount) };
                     Update.Read_modify_write
                       { node = n2; key = a2; f = (fun v -> Option.value v ~default:0 + amount) };
                   ])
            end)
      done;
      (* Advancements interleaved. *)
      for k = 0 to 2 do
        Sim.Engine.schedule engine ~delay:(60.0 +. (90.0 *. float_of_int k))
          (fun () -> ignore (Cluster.advance db ~coordinator:(k mod nodes)))
      done;
      (* Auditing queries: full scans at random times. *)
      let violations = ref 0 and audits = ref 0 in
      let all_reads =
        List.concat_map
          (fun n -> List.init accounts_per_node (fun i -> (n, account n i)))
          (List.init nodes (fun n -> n))
      in
      for _ = 1 to 15 do
        let delay = Sim.Rng.float rng 350.0 in
        Sim.Engine.schedule engine ~delay (fun () ->
            let q = Cluster.run_query db ~root:(Sim.Rng.int rng nodes) ~reads:all_reads in
            let sum =
              List.fold_left
                (fun acc (_, _, v) -> acc + Option.value v ~default:0)
                0 q.Ava3.Query_exec.values
            in
            incr audits;
            if sum <> total then incr violations)
      done;
      Sim.Engine.run engine;
      if !violations > 0 then
        QCheck.Test.fail_reportf "%d of %d audits saw a torn total" !violations !audits
      else !audits > 0)

(* {1 Determinism of full runs} *)

let run_fingerprint seed =
  let engine = Sim.Engine.create ~seed ~trace:false () in
  let db =
    Baseline.Ava3_db.create ~engine ~advancement_period:60.0
      ~advancement_until:400.0 ~nodes:3 ()
  in
  let ks = Workload.Keyspace.create ~nodes:3 ~keys_per_node:30 ~theta:0.9 in
  for n = 0 to 2 do
    Baseline.Ava3_db.load db ~node:n
      (List.map (fun k -> (k, 0)) (Workload.Keyspace.all_keys ks ~node:n))
  done;
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let spec =
    {
      Workload.Driver.default_spec with
      duration = 400.0;
      update_rate = 0.3;
      query_rate = 0.2;
    }
  in
  let report =
    Workload.Driver.run (module Baseline.Ava3_db) db ~engine ~rng ~keyspace:ks
      ~spec
  in
  let stats = Ava3.Cluster.stats (Baseline.Ava3_db.cluster db) in
  ( report.Workload.Driver.committed,
    report.Workload.Driver.aborted,
    report.Workload.Driver.queries_ok,
    stats.Ava3.Cluster.messages,
    stats.Ava3.Cluster.mtf_data_access,
    stats.Ava3.Cluster.mtf_commit_time,
    Workload.Histogram.mean report.Workload.Driver.update_latency,
    Sim.Engine.now engine )

let test_full_run_deterministic () =
  let a = run_fingerprint 99L and b = run_fingerprint 99L in
  check_bool "identical fingerprints" true (a = b);
  let c = run_fingerprint 100L in
  check_bool "different seed differs" true (a <> c)

let test_table1_deterministic () =
  let event_times r =
    List.map (fun e -> (e.Dbsim.Table1.time, e.Dbsim.Table1.text)) r.Dbsim.Table1.events
  in
  let a = Dbsim.Table1.run () and b = Dbsim.Table1.run () in
  check_bool "identical traces" true (event_times a = event_times b)

(* {1 Multi-coordinator storms} *)

let prop_coordinator_storm =
  QCheck.Test.make ~name:"simultaneous coordinators always converge" ~count:25
    QCheck.(int_bound 100_000)
    (fun seed ->
      let engine = Sim.Engine.create ~seed:(Int64.of_int seed) ~trace:false () in
      let db : int Cluster.t = Cluster.create ~engine ~nodes:4 () in
      let sessions = Session.per_partition ~seed:0L db in
      let rng = Sim.Rng.split (Sim.Engine.rng engine) in
      Cluster.load db ~node:0 [ ("x", 1) ];
      (* Several waves of advancement attempts from random nodes at random
         (close) times, plus background updates. *)
      for _ = 1 to 8 do
        let delay = Sim.Rng.float rng 120.0 in
        let k = Sim.Rng.int rng 4 in
        Sim.Engine.schedule engine ~delay (fun () ->
            ignore (Cluster.advance db ~coordinator:k))
      done;
      for _ = 1 to 12 do
        let delay = Sim.Rng.float rng 120.0 in
        Sim.Engine.schedule engine ~delay (fun () ->
            ignore
              (Flat_txn.run sessions.(Sim.Rng.int rng 4)
                 [ Update.Write { node = Sim.Rng.int rng 4; key = "x"; value = 1 } ]))
      done;
      Sim.Engine.run engine;
      (* All nodes agree and the system is quiescent-consistent. *)
      match
        Cluster.check_invariants db @ Cluster.check_quiescent_invariants db
      with
      | [] -> true
      | vs -> QCheck.Test.fail_reportf "violations: %s" (String.concat "; " vs))

(* Updates write to "x" at node picked randomly but key lives at node 0...
   every node's store is independent in this model, so a write through node
   n creates the item there; that is fine for the storm test. *)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "integration"
    [
      ( "determinism",
        [
          Alcotest.test_case "full run fingerprint" `Quick
            test_full_run_deterministic;
          Alcotest.test_case "table1 trace" `Quick test_table1_deterministic;
        ] );
      ( "fuzz",
        qc
          [
            prop_recovery_equivalence;
            prop_advancement_survives_chaos;
            prop_coordinator_storm;
            prop_conserved_ledger;
          ] );
    ]
