(* Session-layer tests: savepoint create/rollback/release semantics (the
   write-set is restored and the scope's locks become re-acquirable; a
   released scope merges into its parent), seeded retry backoff
   determinism, retry budget exhaustion, the acked-commit idempotence
   guard — and the end-to-end oracle: ten seeds under both GC renumbering
   rules running DSL-generated programs through the session layer under a
   nemesis, with the serializability checker and the index<->base
   invariant audit asserting zero violations. *)

module Cluster = Ava3.Cluster
module Node_state = Ava3.Node_state
module Config = Ava3.Config
module SC = Dbsim.Serial_check

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let no_msgs what msgs = Alcotest.(check (list string)) what [] msgs

let scheme_name = function
  | Wal.Scheme.No_undo -> "no-undo"
  | Wal.Scheme.Undo_redo -> "undo-redo"

(* Unit-latency cluster so the tests' timing reasoning is exact. *)
let with_cluster ?config ?(nodes = 2) ?(seed = 7L) body =
  let engine = Sim.Engine.create ~seed () in
  let db : int Cluster.t =
    Cluster.create ~engine ?config ~latency:(Net.Latency.Constant 1.0) ~nodes
      ()
  in
  Sim.Engine.spawn engine (fun () -> body db);
  Sim.Engine.run engine;
  db

let visible db ~node key =
  Vstore.Store.read_le (Node_state.store (Cluster.node db node)) key max_int

(* {1 Savepoint semantics} *)

(* Rollback erases the scope's writes — pre-scope writes and reads keep
   their values, in-scope creations vanish — under both WAL schemes (the
   deferred-workspace and the in-place-undo implementations must agree). *)
let test_rollback_restores_write_set scheme () =
  let config = { Config.default with scheme } in
  let db =
    with_cluster ~config (fun db ->
        Cluster.load db ~node:0 [ ("a", 1) ];
        Cluster.load db ~node:1 [ ("b", 2) ];
        let s = Session.create db ~seed:1L in
        match
          Session.txn s (fun c ->
              Session.write c ~node:0 "a" 10;
              (match
                 Session.nested c (fun () ->
                     Session.write c ~node:0 "a" 999;
                     Session.write c ~node:1 "b" 999;
                     Session.write c ~node:1 "fresh" 7;
                     raise Session.Rollback)
               with
              | Ok () -> Alcotest.fail "scope must roll back"
              | Error `Rolled_back -> ()
              | Error `Deadlock -> Alcotest.fail "no contention here");
              (* The transaction's own view is restored too. *)
              check_bool "a restored in own view" true
                (Session.read c ~node:0 "a" = Some 10);
              check_bool "b restored in own view" true
                (Session.read c ~node:1 "b" = Some 2);
              check_bool "fresh gone from own view" true
                (Session.read c ~node:1 "fresh" = None))
        with
        | Session.Committed { attempts; _ } -> check_int "one attempt" 1 attempts
        | Session.Failed _ -> Alcotest.fail "must commit")
  in
  check_bool "pre-scope write survives" true (visible db ~node:0 "a" = Some 10);
  check_bool "rolled-back write erased" true (visible db ~node:1 "b" = Some 2);
  check_bool "rolled-back creation erased" true
    (visible db ~node:1 "fresh" = None);
  no_msgs "quiescent" (Cluster.check_quiescent_invariants db)

(* A released (normally returned) scope merges into the parent: its writes
   commit with the transaction; nesting is arbitrary and rollback only
   peels back to its own mark. *)
let test_release_merges scheme () =
  let config = { Config.default with scheme } in
  let db =
    with_cluster ~config (fun db ->
        Cluster.load db ~node:0 [ ("a", 1) ];
        let s = Session.create db ~seed:2L in
        match
          Session.txn s (fun c ->
              match
                Session.nested c (fun () ->
                    Session.write c ~node:0 "a" 50;
                    (match
                       Session.nested c (fun () ->
                           Session.write c ~node:0 "a" 60;
                           Session.write c ~node:1 "inner" 1;
                           raise Session.Rollback)
                     with
                    | Error `Rolled_back -> ()
                    | _ -> Alcotest.fail "inner scope must roll back");
                    Session.write c ~node:1 "outer" 2)
              with
              | Ok () -> ()
              | Error _ -> Alcotest.fail "outer scope must merge")
        with
        | Session.Committed _ -> ()
        | Session.Failed _ -> Alcotest.fail "must commit")
  in
  check_bool "outer-scope write committed" true
    (visible db ~node:0 "a" = Some 50);
  check_bool "outer creation committed" true
    (visible db ~node:1 "outer" = Some 2);
  check_bool "inner rollback confined to its mark" true
    (visible db ~node:1 "inner" = None);
  no_msgs "quiescent" (Cluster.check_quiescent_invariants db)

(* Locks first acquired inside a rolled-back scope are released: a
   concurrent transaction takes the same item and commits while the first
   transaction is still open.  If rollback leaked the lock, B would block
   until A's commit and finish after it. *)
let test_rollback_releases_locks () =
  let config =
    { Config.default with read_service_time = 1.0; write_service_time = 1.0 }
  in
  let engine = Sim.Engine.create ~seed:9L () in
  let db : int Cluster.t =
    Cluster.create ~engine ~config ~latency:(Net.Latency.Constant 1.0)
      ~nodes:2 ()
  in
  Cluster.load db ~node:1 [ ("k", 0) ];
  let a_done = ref None and b_done = ref None in
  Sim.Engine.schedule engine ~name:"A" ~delay:1.0 (fun () ->
      let s = Session.create db ~seed:1L ~coordinators:[ 0 ] in
      match
        Session.txn s (fun c ->
            (match
               Session.nested c (fun () ->
                   Session.write c ~node:1 "k" 111;
                   raise Session.Rollback)
             with
            | Error `Rolled_back -> ()
            | _ -> Alcotest.fail "scope must roll back");
            (* Stay open long after B wants the lock. *)
            Session.pause c 40.0;
            Session.write c ~node:0 "other" 1)
      with
      | Session.Committed cm -> a_done := Some cm.Session.finished_at
      | Session.Failed _ -> Alcotest.fail "A must commit");
  Sim.Engine.schedule engine ~name:"B" ~delay:10.0 (fun () ->
      let s = Session.create db ~seed:2L ~coordinators:[ 1 ] in
      match Session.txn s (fun c -> Session.write c ~node:1 "k" 222) with
      | Session.Committed cm ->
          check_int "B needed no retry" 1 cm.Session.attempts;
          b_done := Some cm.Session.finished_at
      | Session.Failed _ -> Alcotest.fail "B must commit");
  Sim.Engine.run engine;
  match (!a_done, !b_done) with
  | Some a, Some b ->
      check_bool "B committed while A was still open" true (b < a);
      check_bool "B's write is the final state" true
        (visible db ~node:1 "k" = Some 222);
      no_msgs "quiescent" (Cluster.check_quiescent_invariants db)
  | _ -> Alcotest.fail "both transactions must finish"

(* {1 Retry discipline} *)

(* Every attempt against a crashed participant fails; the budget is spent
   and the last error surfaces.  attempts = max_retries + 1.  The outcome
   is checked after the run so a wedged transaction fails loudly instead
   of skipping the assertions. *)
let test_budget_exhaustion () =
  let config =
    {
      Config.default with
      max_retries = 2;
      retry_backoff_base = 2.0;
      rpc_timeout = 5.0;
    }
  in
  let outcome = ref None in
  let db =
    with_cluster ~config ~nodes:2 (fun db ->
        Cluster.load db ~node:1 [ ("k", 0) ];
        Cluster.crash db ~node:1;
        let s = Session.create db ~seed:3L ~coordinators:[ 0 ] in
        outcome :=
          Some (Session.txn s (fun c -> Session.write c ~node:1 "k" 1)))
  in
  (match !outcome with
  | Some (Session.Failed { attempts; last; durable; _ }) -> (
      check_int "budget + 1 attempts" 3 attempts;
      check_bool "nothing durable" true (durable = []);
      match last with
      | Session.Aborted (`Rpc_timeout 1 | `Node_down 1) -> ()
      | Session.Aborted r ->
          Alcotest.failf "unexpected abort reason %a" Sim.Event.pp_reason r
      | Session.Root_down _ -> Alcotest.fail "root was alive")
  | Some (Session.Committed _) -> Alcotest.fail "cannot commit to a dead node"
  | None -> Alcotest.fail "transaction never finished");
  let retries = ref 0 in
  List.iter
    (fun (n : Sim.Metrics.node_snapshot) -> retries := !retries + n.session_retries)
    (Cluster.metrics_snapshot db);
  check_int "both retries recorded" 2 !retries

(* The backoff sequence is a pure function of the session seed: same seed,
   same total backoff (and so the same virtual timeline); a different seed
   jitters differently. *)
let test_backoff_determinism () =
  let run seed =
    let config =
      {
        Config.default with
        max_retries = 3;
        retry_backoff_base = 2.0;
        rpc_timeout = 5.0;
      }
    in
    let engine = Sim.Engine.create ~seed:11L () in
    let db : int Cluster.t =
      Cluster.create ~engine ~config ~latency:(Net.Latency.Constant 1.0)
        ~nodes:2 ()
    in
    Cluster.load db ~node:1 [ ("k", 0) ];
    Cluster.crash db ~node:1;
    Sim.Engine.spawn engine (fun () ->
        let s = Session.create db ~seed ~coordinators:[ 0 ] in
        ignore (Session.txn s (fun c -> Session.write c ~node:1 "k" 1)));
    Sim.Engine.run engine;
    let backoff = ref 0.0 in
    List.iter
      (fun (n : Sim.Metrics.node_snapshot) ->
        backoff := !backoff +. n.session_backoff)
      (Cluster.metrics_snapshot db);
    (!backoff, Sim.Engine.now engine)
  in
  let b1, t1 = run 5L and b2, t2 = run 5L and b3, _ = run 6L in
  check_bool "backoff spent" true (b1 > 0.0);
  check_bool "same seed, same backoff" true (b1 = b2);
  check_bool "same seed, same timeline" true (t1 = t2);
  check_bool "different seed, different jitter" true (b1 <> b3)

(* Acked-then-timed-out commit: the participant's commit record lands (the
   0->1 request leg is up) but the reply leg is cut, so the coordinator
   sees Rpc_timeout after the version was decided.  The idempotence guard
   finds every participant durable and reports Committed without retrying
   — the increment is applied exactly once. *)
let test_idempotence_guard () =
  let config =
    {
      Config.default with
      read_service_time = 1.0;
      write_service_time = 1.0;
      (* A real disk force on the commit record widens the window between
         the participant's commit landing and its reply being sent. *)
      disk_force_latency = 5.0;
      rpc_timeout = 8.0;
      max_retries = 3;
      retry_backoff_base = 1.0;
    }
  in
  let engine = Sim.Engine.create ~seed:13L () in
  let db : int Cluster.t =
    Cluster.create ~engine ~config ~latency:(Net.Latency.Constant 1.0)
      ~nodes:2 ()
  in
  Cluster.load db ~node:1 [ ("k", 100) ];
  let net = Cluster.network db in
  let outcome = ref None in
  Sim.Engine.schedule engine ~name:"txn" ~delay:1.0 (fun () ->
      let s = Session.create db ~seed:4L ~coordinators:[ 0 ] in
      let r =
        Session.txn s (fun c ->
            Session.rmw c ~node:1 "k" (function
              | None -> 1
              | Some v -> v + 1);
            (* Cut the reply leg once the prepare round is over but before
               the participant's commit reply (delayed by the disk force)
               gets out; heal well after the timeout has fired. *)
            let cut = 6.0 in
            Sim.Engine.schedule engine ~delay:cut (fun () ->
                Net.Network.set_link_down net ~src:1 ~dst:0 true);
            Sim.Engine.schedule engine ~delay:(cut +. 30.0) (fun () ->
                Net.Network.set_link_down net ~src:1 ~dst:0 false))
      in
      outcome := Some r);
  Sim.Engine.run engine;
  (match !outcome with
  | Some (Session.Committed cm) ->
      (* The guard reported the truth without burning a retry. *)
      check_int "single attempt" 1 cm.Session.attempts
  | Some (Session.Failed { last; _ }) ->
      Alcotest.failf "guard missed a durable commit: %s"
        (match last with
        | Session.Aborted r -> Format.asprintf "%a" Sim.Event.pp_reason r
        | Session.Root_down n -> Printf.sprintf "root %d down" n)
  | None -> Alcotest.fail "transaction never finished");
  check_bool "applied exactly once" true (visible db ~node:1 "k" = Some 101);
  no_msgs "quiescent" (Cluster.check_quiescent_invariants db)

(* {1 The oracle suite} *)

(* Mirror of Serial_check.Recorder, driven through the session layer:
   committed transactions record what each tracked RMW observed and
   wrote; queries record their snapshots; the Theorem 6.2 replay
   verifies the lot.  Ops inside expect-abort scopes are deliberately
   untracked — their effects must vanish with the scope, so recording
   them would itself be a bug. *)

let oracle_run ~seed ~gc_renumber =
  let label = Printf.sprintf "seed %Ld, gc_renumber %b" seed gc_renumber in
  let engine = Sim.Engine.create ~seed () in
  let nodes = 3 and keys = 8 in
  let config =
    {
      Config.default with
      gc_renumber;
      rpc_timeout = 15.0;
      advancement_retry = 25.0;
      max_retries = 3;
      retry_backoff_base = 4.0;
    }
  in
  (* The index rides along so every invariant probe audits index<->base
     through the session layer's retries and savepoint rollbacks. *)
  let db : int Cluster.t =
    Cluster.create ~engine ~config ~index:Baseline.Ava3_db.default_extract
      ~nodes ()
  in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  (* Two disjoint key populations: "n<i>-k<j>" carries the recorded
     serializable history; the DSL namespace "k<i>_<j>" absorbs the
     generated programs (whose ops are not recorded, so they must not
     touch the replayed keys). *)
  let skeys = ref [] in
  for n = 0 to nodes - 1 do
    let named = List.init keys (fun i -> (Printf.sprintf "n%d-k%d" n i, i)) in
    Cluster.load db ~node:n named;
    Cluster.load db ~node:n
      (List.init keys (fun i -> (Session.Dsl.gen_key ~node:n i, i)));
    skeys := !skeys @ List.map (fun (k, _) -> (n, k)) named
  done;
  let keys_list = !skeys in
  let initial = List.map (fun (n, k) -> ((n, k), List.assoc k (List.init keys (fun i -> (Printf.sprintf "n%d-k%d" n i, i)))))
      keys_list
  in
  let horizon = 360.0 in
  let plan =
    Net.Nemesis.random_plan ~rng ~nodes ~horizon:(horizon *. 0.7) ~crashes:1
      ~partitions:1 ~slow_links:1 ~min_duration:20.0 ~max_duration:40.0
      ~extra_latency:2.0 ()
  in
  Net.Nemesis.install ~engine (Cluster.nemesis_target db) plan;
  let committed = ref [] and queries = ref [] and violations = ref [] in
  (* Recorded session transactions: tracked RMWs outside scopes, a
     sprinkle of expect-abort scopes with untracked ops inside. *)
  for u = 0 to 17 do
    Sim.Engine.schedule engine
      ~delay:(Sim.Rng.float rng (horizon *. 0.85))
      (fun () ->
        let s =
          Session.create db ~seed:(Int64.of_int (1000 + u))
        in
        let nops = 1 + Sim.Rng.int rng 2 in
        let targets =
          List.init nops (fun _ ->
              let n = Sim.Rng.int rng nodes in
              (n, Printf.sprintf "n%d-k%d" n (Sim.Rng.int rng keys)))
        in
        let scope_target =
          let n = Sim.Rng.int rng nodes in
          (n, Printf.sprintf "n%d-k%d" n (Sim.Rng.int rng keys))
        in
        let with_scope = u mod 3 = 0 in
        let observed = Queue.create () in
        match
          Session.txn s (fun c ->
              (* Retries re-run the function: restart the observation log
                 so only the committing attempt is recorded. *)
              Queue.clear observed;
              List.iteri
                (fun i (n, k) ->
                  Session.rmw c ~node:n k (fun old ->
                      let v = SC.transform ~salt:((u * 10) + i) old in
                      Queue.push ((n, k), old, v) observed;
                      v))
                targets;
              if with_scope then
                let n, k = scope_target in
                match
                  Session.nested c (fun () ->
                      Session.rmw c ~node:n k (fun old ->
                          SC.transform ~salt:999 old);
                      raise Session.Rollback)
                with
                | Error `Rolled_back -> ()
                | Ok () -> Alcotest.fail "scope must roll back"
                | Error `Deadlock -> raise (Ava3.Subtxn.Txn_abort `Deadlock))
        with
        | Session.Committed cm ->
            committed :=
              {
                SC.t_version = cm.Session.final_version;
                t_finished = cm.Session.finished_at;
                t_commit_at = cm.Session.participants;
                t_ops =
                  Queue.fold
                    (fun acc (key, old, v) -> SC.Rmw (key, old, v) :: acc)
                    [] observed
                  |> List.rev;
              }
              :: !committed
        | Session.Failed { durable; version; _ } ->
            (* The crash-partial edge: participants in [durable] hold
               their commit records for good even though the transaction
               failed, so the replay must account for the ops living at
               those homes (a node died mid-commit-round and lost the
               rest). *)
            if durable <> [] then begin
              let homes = List.map fst durable in
              (* The writes became visible when the last durable
                 participant finalized, not when the client learned the
                 transaction had failed — order the replay by the former. *)
              let last_commit =
                List.fold_left (fun a (_, at) -> Float.max a at) 0.0 durable
              in
              committed :=
                {
                  SC.t_version = version;
                  t_finished = last_commit;
                  t_commit_at = durable;
                  t_ops =
                    Queue.fold
                      (fun acc (((n, _) as key), old, v) ->
                        if List.mem n homes then SC.Rmw (key, old, v) :: acc
                        else acc)
                      [] observed
                    |> List.rev;
                }
                :: !committed
            end)
  done;
  (* Recorded queries through the session's pooled, retrying path. *)
  for q = 0 to 9 do
    Sim.Engine.schedule engine
      ~delay:(Sim.Rng.float rng (horizon *. 0.95))
      (fun () ->
        let s = Session.create db ~seed:(Int64.of_int (2000 + q)) in
        let reads =
          List.init
            (1 + Sim.Rng.int rng 3)
            (fun _ ->
              let n = Sim.Rng.int rng nodes in
              (n, Printf.sprintf "n%d-k%d" n (Sim.Rng.int rng keys)))
        in
        match Session.query s ~reads with
        | Ok (r : int Ava3.Query_exec.result) ->
            queries :=
              {
                SC.q_version = r.Ava3.Query_exec.version;
                q_reads =
                  List.map (fun (n, k, v) -> ((n, k), v)) r.Ava3.Query_exec.values;
              }
              :: !queries
        | Error _ -> ())
  done;
  (* DSL-generated programs over the disjoint namespace: savepoint scopes,
     expect-abort rollbacks and automatic retries racing everything. *)
  let dsl_summary = ref Session.Dsl.empty_summary in
  for i = 0 to 1 do
    let prog = Session.Dsl.gen ~rng ~nodes ~keys_per_node:keys ~txns:4 in
    Sim.Engine.schedule engine
      ~delay:(Sim.Rng.float rng (horizon *. 0.5))
      (fun () ->
        let s = Session.create db ~seed:(Int64.of_int (3000 + i)) in
        dsl_summary :=
          Session.Dsl.add_summary !dsl_summary (Session.Dsl.run s prog))
  done;
  (* Advancement beats from the first alive node. *)
  for b = 1 to int_of_float (horizon /. 45.0) do
    Sim.Engine.schedule engine
      ~delay:(float_of_int b *. 45.0)
      (fun () ->
        let rec first_alive k =
          if k >= nodes then None
          else if Node_state.alive (Cluster.node db k) then Some k
          else first_alive (k + 1)
        in
        match first_alive 0 with
        | Some k -> ignore (Cluster.advance db ~coordinator:k)
        | None -> ())
  done;
  (* Invariant probes (index<->base included) throughout the run. *)
  for p = 0 to 23 do
    Sim.Engine.schedule engine
      ~delay:(float_of_int p *. 15.0)
      (fun () -> violations := Cluster.check_invariants db @ !violations)
  done;
  Sim.Engine.run engine;
  Alcotest.(check (list string)) (label ^ ": no invariant violations") []
    !violations;
  no_msgs (label ^ ": quiescent invariants")
    (Cluster.check_quiescent_invariants db);
  (* Theorem 6.2 over the recorded session history. *)
  let cs = Cluster.state db in
  let history =
    {
      SC.committed = List.rev !committed;
      queries = List.rev !queries;
      initial;
      final_visible =
        List.map
          (fun ((n, k) as key) ->
            ( key,
              Vstore.Store.read_le
                (Node_state.store
                   (Cluster.node db (Ava3.Cluster_state.home_site cs n)))
                k max_int ))
          keys_list;
    }
  in
  Alcotest.(check (list string)) (label ^ ": serializable") []
    (SC.verify history).SC.errors;
  check_bool (label ^ ": some recorded commits") true (!committed <> []);
  check_bool (label ^ ": dsl programs ran") true
    ((!dsl_summary).Session.Dsl.committed + (!dsl_summary).Session.Dsl.failed
    > 0)

let test_oracle () =
  List.iter
    (fun gc_renumber ->
      for s = 1 to 10 do
        oracle_run ~seed:(Int64.of_int (500 + s)) ~gc_renumber
      done)
    [ false; true ]

let () =
  Alcotest.run "session"
    [
      ( "savepoints",
        [
          Alcotest.test_case
            ("rollback restores write-set, " ^ scheme_name Wal.Scheme.No_undo)
            `Quick
            (test_rollback_restores_write_set Wal.Scheme.No_undo);
          Alcotest.test_case
            ("rollback restores write-set, " ^ scheme_name Wal.Scheme.Undo_redo)
            `Quick
            (test_rollback_restores_write_set Wal.Scheme.Undo_redo);
          Alcotest.test_case
            ("release merges, " ^ scheme_name Wal.Scheme.No_undo)
            `Quick
            (test_release_merges Wal.Scheme.No_undo);
          Alcotest.test_case
            ("release merges, " ^ scheme_name Wal.Scheme.Undo_redo)
            `Quick
            (test_release_merges Wal.Scheme.Undo_redo);
          Alcotest.test_case "rollback releases scope locks" `Quick
            test_rollback_releases_locks;
        ] );
      ( "retry",
        [
          Alcotest.test_case "budget exhaustion surfaces last error" `Quick
            test_budget_exhaustion;
          Alcotest.test_case "backoff determinism" `Quick
            test_backoff_determinism;
          Alcotest.test_case "acked-commit idempotence guard" `Quick
            test_idempotence_guard;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "10 seeds x both gc rules" `Quick test_oracle;
        ] );
    ]
