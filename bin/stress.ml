(* stress — randomized protocol stress with livelock and invariant checks.

   Runs many seeds of a randomized mixed workload (updates, queries,
   advancements from random coordinators, optional crashes, optionally the
   tree executor) and fails loudly on: an exception, a §6.2 invariant
   violation, or a livelock (events still pending far beyond the workload
   horizon).  This is the tool that caught the premature-GC and
   cross-node-deadlock bugs during development; it runs in CI spirit:
   `dune exec bin/stress.exe -- --seeds 500`.  *)

module Cluster = Ava3.Cluster

let run_one ~seed ~nodes ~crashes ~partitions ~use_tree ~nemesis ~hot_theta
    ~with_index ~with_sessions ~replicas =
  let engine = Sim.Engine.create ~seed:(Int64.of_int seed) ~trace:false () in
  let config =
    {
      Ava3.Config.default with
      scheme = (if seed mod 2 = 0 then Wal.Scheme.No_undo else Wal.Scheme.Undo_redo);
      eager_counter_handoff = seed mod 3 = 0;
      piggyback_version = seed mod 5 = 0;
      root_only_query_counters = seed mod 7 = 0;
      shared_transaction_counters = seed mod 11 = 0;
      gc_renumber = seed mod 13 <> 0;
      read_service_time = 0.3;
      write_service_time = 0.5;
      advancement_retry = 50.0;
      (* Finite: configurations with crashes/partitions must detect lost
         RPCs by timeout, not hang on them. *)
      rpc_timeout = 25.0;
      (* Commit-path batching at seed-derived strengths: about a third of
         the seeds pay for a real disk force and group-commit window (so
         crashes genuinely lose volatile log tails), and a subset of those
         also coalesce RPC legs into envelopes. *)
      disk_force_latency = (if seed mod 3 = 1 then 0.4 else 0.0);
      group_commit_window =
        (if seed mod 3 = 1 then 0.5 *. float_of_int (1 + (seed mod 4)) else 0.0);
      group_commit_batch = 4 + (seed mod 13);
      rpc_batch_window = (if seed mod 6 = 1 then 0.5 else 0.0);
      (* --replicas: one backup per partition.  Crashes and link cuts
         below name sites 0 .. nodes-1, the partitions' initial primaries,
         so a crash fails its partition over to the backup.  A quarter of
         those seeds advance through relay trees: arity 2 is depth one on
         three partitions and has an inner relay on four, arity 1 chains
         every partition, so crashes and the nemesis fail inner relays
         over mid-round. *)
      replicas = (if replicas then 1 else 0);
      tree_arity =
        (if not replicas then 0
         else match seed mod 8 with 3 -> 2 | 7 -> 1 | _ -> 0);
    }
  in
  (* Fail fast on a nonsensical knob combination before any cluster
     setup; Cluster.create validates again, but by then a bad CLI value
     has already cost the run's setup work. *)
  Ava3.Config.validate config;
  let db : int Cluster.t =
    if with_index then
      Cluster.create ~engine ~config ~index:Baseline.Ava3_db.default_extract
        ~nodes ()
    else Cluster.create ~engine ~config ~nodes ()
  in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  for n = 0 to nodes - 1 do
    Cluster.load db ~node:n
      (List.init 12 (fun i -> (Printf.sprintf "n%d-k%d" n i, i)))
  done;
  let key n = Printf.sprintf "n%d-k%d" n (Sim.Rng.int rng 12) in
  (* --hot-theta skews transaction/query roots toward low-numbered sites
     (hot partitions); the default 0.0 takes the uniform path and leaves
     the RNG sequence of every existing seed untouched. *)
  let zipf =
    if hot_theta > 0.0 then Some (Workload.Zipf.create ~n:nodes ~theta:hot_theta)
    else None
  in
  let pick_root () =
    match zipf with
    | Some z -> Workload.Zipf.sample z rng
    | None -> Sim.Rng.int rng nodes
  in
  let horizon = 400.0 in
  (* Updates, retried by the session pinned to their drawn root: a commit
     round that timed out after the version decision is finished, not rerun. *)
  let sessions = Session.per_partition ~seed:(Int64.of_int (1000 * seed)) db in
  for _ = 1 to 25 do
    let delay = Sim.Rng.float rng horizon in
    Sim.Engine.schedule engine ~delay (fun () ->
        let root = pick_root () in
        let mk _ =
          let n = Sim.Rng.int rng nodes in
          if Sim.Rng.bool rng then
            Workload.Db_intf.Write { node = n; key = key n; value = Sim.Rng.int rng 1000 }
          else Workload.Db_intf.Read { node = n; key = key n }
        in
        let ops = List.init (1 + Sim.Rng.int rng 4) mk in
        ignore
          (Session.txn sessions.(root) (fun c ->
               List.iter
                 (function
                   | Workload.Db_intf.Write { node; key; value } ->
                       Session.write c ~node key value
                   | Workload.Db_intf.Read { node; key } ->
                       ignore (Session.read c ~node key : int option))
                 ops)
            : (int, unit) Session.outcome))
  done;
  (* Tree transactions (explicit), when enabled. *)
  if use_tree then
    for _ = 1 to 10 do
      let delay = Sim.Rng.float rng horizon in
      Sim.Engine.schedule engine ~delay (fun () ->
          let root = pick_root () in
          let children =
            List.filteri (fun i _ -> i <> root) (List.init nodes (fun i -> i))
            |> List.filter (fun _ -> Sim.Rng.bool rng)
            |> List.map (fun n ->
                   {
                     Ava3.Tree_txn.at = n;
                     work = [ Ava3.Tree_txn.Write (key n, Sim.Rng.int rng 1000) ];
                     children = [];
                   })
          in
          let plan =
            { Ava3.Tree_txn.at = root; work = [ Ava3.Tree_txn.Read (key root) ]; children }
          in
          ignore (Cluster.run_tree_update db ~plan))
    done;
  (* Queries. *)
  for _ = 1 to 20 do
    let delay = Sim.Rng.float rng horizon in
    Sim.Engine.schedule engine ~delay (fun () ->
        let root = pick_root () in
        let reads =
          List.init (1 + Sim.Rng.int rng 5) (fun _ ->
              let n = Sim.Rng.int rng nodes in
              (n, key n))
        in
        try ignore (Cluster.run_query db ~root ~reads)
        with Net.Network.Node_down _ | Net.Network.Rpc_timeout _ -> ())
  done;
  (* Index scans and joins under --index: every select runs [`Both_check] —
     the index plan and the full-scan plan back to back at each site — so
     any divergence between them surfaces as an Index_mismatch exception
     and fails the seed.  Off by default; the flag leaves the RNG sequence
     of unindexed runs untouched. *)
  if with_index then begin
    let attr () = Printf.sprintf "a%03d" (Sim.Rng.int rng 1000) in
    let range () =
      let a = attr () and b = attr () in
      if a <= b then (a, b) else (b, a)
    in
    for _ = 1 to 10 do
      let delay = Sim.Rng.float rng horizon in
      Sim.Engine.schedule engine ~delay (fun () ->
          let root = pick_root () in
          let lo, hi = range () in
          let ranges = List.init nodes (fun n -> (n, lo, hi)) in
          try ignore (Cluster.run_select db ~root ~plan:`Both_check ~ranges)
          with Net.Network.Node_down _ | Net.Network.Rpc_timeout _ -> ())
    done;
    for _ = 1 to 4 do
      let delay = Sim.Rng.float rng horizon in
      Sim.Engine.schedule engine ~delay (fun () ->
          let root = pick_root () in
          let parts = List.init nodes Fun.id in
          let blo, bhi = range () and plo, phi = range () in
          try
            ignore
              (Cluster.run_join db ~root ~plan:`Both_check
                 ~build:(parts, blo, bhi) ~probe:(parts, plo, phi))
          with Net.Network.Node_down _ | Net.Network.Rpc_timeout _ -> ())
    done
  end;
  (* Session-layer client programs under --sessions: seeded DSL programs
     (savepoint scopes, expect-abort rollbacks, automatic seeded retry)
     run through Session on pooled coordinators, racing everything else
     the seed schedules.  All randomness comes from a named fork of the
     engine's root stream, so runs without the flag keep their exact RNG
     sequences. *)
  if with_sessions then begin
    let srng = Sim.Rng.fork_named (Sim.Engine.rng engine) "stress-sessions" in
    for i = 0 to 1 do
      let delay = Sim.Rng.float srng (horizon /. 2.0) in
      let prog = Session.Dsl.gen ~rng:srng ~nodes ~keys_per_node:8 ~txns:5 in
      Sim.Engine.schedule engine ~delay
        ~name:(Printf.sprintf "sessions-%d" i)
        (fun () ->
          let sess =
            Session.create db ~seed:(Int64.of_int ((seed * 17) + i))
          in
          ignore (Session.Dsl.run sess prog : Session.Dsl.summary))
    done
  end;
  (* Advancements from random coordinators. *)
  for _ = 1 to 5 do
    let delay = Sim.Rng.float rng horizon in
    let k = Sim.Rng.int rng nodes in
    Sim.Engine.schedule engine ~delay (fun () ->
        ignore (Cluster.advance db ~coordinator:k))
  done;
  (* Crash/recover cycles. *)
  if crashes then begin
    let victim = Sim.Rng.int rng nodes in
    let at = Sim.Rng.float rng (horizon /. 2.0) in
    Sim.Engine.schedule engine ~delay:at (fun () -> Cluster.crash db ~node:victim);
    Sim.Engine.schedule engine ~delay:(at +. 60.0) (fun () ->
        Cluster.recover db ~node:victim);
    Sim.Engine.schedule engine ~delay:(at +. 120.0) (fun () ->
        ignore (Cluster.advance db ~coordinator:((victim + 1) mod nodes)))
  end;
  (* Seeded nemesis: random crash/partition/slow-link schedule with WAL
     recovery on restart, plus a late advancement to exercise the §3.2
     stalled-round re-initiation after mid-round faults. *)
  if nemesis then begin
    let plan =
      Net.Nemesis.random_plan ~rng ~nodes ~horizon:(horizon /. 1.5)
        ~crashes:2 ~partitions:1 ~slow_links:1 ~min_duration:20.0
        ~max_duration:50.0 ~extra_latency:3.0 ()
    in
    Net.Nemesis.install ~engine (Cluster.nemesis_target db) plan;
    Sim.Engine.schedule engine ~delay:(horizon +. 50.0) (fun () ->
        for k = 0 to nodes - 1 do
          ignore (Cluster.advance db ~coordinator:k)
        done)
  end;
  (* Network partitions: cut a random directed pair both ways, heal later. *)
  if partitions then begin
    let a = Sim.Rng.int rng nodes in
    let b = (a + 1 + Sim.Rng.int rng (nodes - 1)) mod nodes in
    let at = Sim.Rng.float rng (horizon /. 2.0) in
    let net = Cluster.network db in
    Sim.Engine.schedule engine ~delay:at (fun () ->
        Net.Network.set_link_down net ~src:a ~dst:b true;
        Net.Network.set_link_down net ~src:b ~dst:a true);
    Sim.Engine.schedule engine ~delay:(at +. 80.0) (fun () ->
        Net.Network.set_link_down net ~src:a ~dst:b false;
        Net.Network.set_link_down net ~src:b ~dst:a false);
    Sim.Engine.schedule engine ~delay:(at +. 160.0) (fun () ->
        ignore (Cluster.advance db ~coordinator:a))
  end;
  (* Invariant probes. *)
  let violations = ref [] in
  for _ = 1 to 10 do
    let delay = Sim.Rng.float rng (horizon +. 100.0) in
    Sim.Engine.schedule engine ~delay (fun () ->
        violations := Cluster.check_invariants db @ !violations)
  done;
  (* Livelock detection: the run must drain well before this wall. *)
  let wall = 50_000.0 in
  Sim.Engine.run ~until:wall engine;
  let pending = Sim.Engine.pending_events engine in
  violations := Cluster.check_invariants db @ !violations;
  let metrics = Cluster.metrics_snapshot db in
  let outcome =
    if pending > 0 then begin
      let buf = Buffer.create 256 in
      Buffer.add_string buf
        (Printf.sprintf "livelock: %d events still pending at t=%.0f;" pending
           wall);
      for n = 0 to nodes - 1 do
        let nd = Cluster.node db n in
        Buffer.add_string buf
          (Printf.sprintf " node%d{u=%d q=%d g=%d upd=%d qry(q)=%d wait=%d}" n
             (Ava3.Node_state.u nd) (Ava3.Node_state.q nd) (Ava3.Node_state.g nd)
             (Ava3.Node_state.active_update_transactions nd)
             (Ava3.Node_state.query_count nd ~version:(Ava3.Node_state.q nd))
             (Lockmgr.Lock_table.waiting_requests (Ava3.Node_state.locks nd)))
      done;
      Buffer.add_string buf
        (Printf.sprintf " in_progress=%b" (Cluster.advancement_in_progress db));
      Error (Buffer.contents buf)
    end
    else if !violations <> [] then
      Error
        (Printf.sprintf "invariant violations: %s"
           (String.concat "; " !violations))
    else Ok ()
  in
  (outcome, metrics)

let configurations =
  [
    (* nodes, crashes, partitions, use_tree, nemesis *)
    (2, false, false, false, false);
    (3, true, false, false, false);
    (4, false, false, true, false);
    (3, false, true, false, false);
    (3, false, false, false, true);
  ]

let () =
  let seeds = ref 200 and from = ref 1 and verbose = ref false in
  let hot_theta = ref 0.0 and with_index = ref false in
  let with_sessions = ref false and replicas = ref false in
  let spec =
    [
      ("--seeds", Arg.Set_int seeds, "number of seeds to run (default 200)");
      ("--from", Arg.Set_int from, "first seed (default 1)");
      ( "--hot-theta",
        Arg.Set_float hot_theta,
        "Zipf skew of transaction roots over sites (default 0.0 = uniform)" );
      ( "--index",
        Arg.Set with_index,
        "attach a secondary index and mix in Both_check scans and joins" );
      ( "--sessions",
        Arg.Set with_sessions,
        "mix in session-layer DSL programs (savepoints, automatic retry)" );
      ( "--replicas",
        Arg.Set replicas,
        "give every partition one backup (primary-backup replication)" );
      ("-v", Arg.Set verbose, "print each seed");
    ]
  in
  let usage =
    "stress [--seeds N] [--from S] [--hot-theta T] [--index] [--sessions] \
     [--replicas]"
  in
  let reject fmt =
    Printf.ksprintf
      (fun msg ->
        prerr_endline msg;
        Arg.usage spec usage;
        exit 2)
      fmt
  in
  Arg.parse spec (reject "unexpected argument %S") usage;
  if !seeds < 1 then reject "--seeds must be >= 1 (got %d)" !seeds;
  let hot_theta = !hot_theta and with_index = !with_index in
  let with_sessions = !with_sessions and replicas = !replicas in
  (* Seeds fan out over domains (AVA3_DOMAINS, see Sim.Pool); each run is a
     self-contained engine, so outcomes are identical at any width.  Workers
     only compute — all printing happens afterwards, in seed order. *)
  let outcomes =
    Sim.Pool.map
      (fun seed ->
        List.map
          (fun ((nodes, crashes, partitions, use_tree, nemesis) as cfg) ->
            let outcome, metrics =
              try
                run_one ~seed ~nodes ~crashes ~partitions ~use_tree ~nemesis
                  ~hot_theta ~with_index ~with_sessions ~replicas
              with e -> (Error ("exception: " ^ Printexc.to_string e), [])
            in
            (seed, cfg, outcome, metrics))
          configurations)
      (List.init !seeds (fun i -> !from + i))
  in
  let failures = ref 0 in
  (* Aggregate protocol totals across every run, from the per-run
     metrics snapshots. *)
  let commits = ref 0
  and aborts = ref 0
  and root_down = ref 0
  and queries = ref 0
  and mtf = ref 0
  and advancements = ref 0
  and rpc_calls = ref 0
  and rpc_timeouts = ref 0
  and session_retries = ref 0
  and sp_rollbacks = ref 0 in
  List.iter
    (List.iter
       (fun
         (seed, (nodes, crashes, partitions, use_tree, nemesis), outcome, metrics)
       ->
         List.iter
           (fun (n : Sim.Metrics.node_snapshot) ->
             commits := !commits + n.commits;
             aborts := !aborts + Sim.Metrics.aborts_total n;
             root_down := !root_down + n.root_down_rejections;
             queries := !queries + n.queries;
             mtf := !mtf + n.mtf_data_access + n.mtf_commit_time;
             advancements := !advancements + n.advancements;
             rpc_calls := !rpc_calls + n.rpc_calls;
             rpc_timeouts := !rpc_timeouts + n.rpc_timeouts;
             session_retries := !session_retries + n.session_retries;
             sp_rollbacks := !sp_rollbacks + n.savepoint_rollbacks)
           metrics;
         if !verbose then
           Printf.printf
             "seed %d nodes %d crashes %b partitions %b tree %b nemesis %b\n%!"
             seed nodes crashes partitions use_tree nemesis;
         match outcome with
         | Ok () -> ()
         | Error msg ->
             incr failures;
             Printf.printf
               "FAIL seed=%d nodes=%d crashes=%b partitions=%b tree=%b \
                nemesis=%b: %s\n%!"
               seed nodes crashes partitions use_tree nemesis msg))
    outcomes;
  Printf.printf
    "stress metrics: commits=%d aborts=%d root-down=%d queries=%d mtf=%d \
     advancements=%d rpc=%d timeouts=%d retries=%d sp-rollbacks=%d\n"
    !commits !aborts !root_down !queries !mtf !advancements !rpc_calls
    !rpc_timeouts !session_retries !sp_rollbacks;
  if !failures = 0 then
    Printf.printf "stress: %d seeds x %d configurations clean\n" !seeds
      (List.length configurations)
  else begin
    Printf.printf "stress: %d failures\n" !failures;
    exit 1
  end
