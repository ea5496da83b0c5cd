(* The real-multicore backend: latch and store primitives, protocol unit
   tests on the domains backend (counter-slot reuse included), DES-vs-
   mcore conformance over many seeds, and conviction of the deliberately
   broken pin-skipping twin by a concurrent advancer. *)

(* ---- Latch ------------------------------------------------------------- *)

let test_latch_mutual_exclusion () =
  (* Classic lost-update check: unprotected increments from 4 domains
     would lose updates; with the latch the count must be exact. *)
  let latch = Mcore.Latch.create () in
  let counter = ref 0 in
  let domains = 4 and iters = 20_000 in
  let body () =
    for _ = 1 to iters do
      Mcore.Latch.with_latch latch (fun () -> incr counter)
    done
  in
  let workers = Array.init domains (fun _ -> Domain.spawn body) in
  Array.iter Domain.join workers;
  Alcotest.(check int) "no increment lost" (domains * iters) !counter;
  Alcotest.(check int) "every acquisition counted" (domains * iters)
    (Mcore.Latch.acquisitions latch)

let test_latch_try_and_release () =
  let latch = Mcore.Latch.create () in
  Alcotest.(check bool) "free latch taken" true (Mcore.Latch.try_acquire latch);
  Alcotest.(check bool) "held latch refused" false
    (Mcore.Latch.try_acquire latch);
  Mcore.Latch.release latch;
  Alcotest.(check bool) "released latch taken again" true
    (Mcore.Latch.try_acquire latch);
  Alcotest.(check int) "held latch counts its acquisition" 2
    (Mcore.Latch.acquisitions latch);
  Mcore.Latch.release latch;
  Alcotest.(check int) "refused try and release count nothing" 2
    (Mcore.Latch.acquisitions latch)

let test_latch_releases_on_exception () =
  let latch = Mcore.Latch.create () in
  (try Mcore.Latch.with_latch latch (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "latch free after exception" true
    (Mcore.Latch.try_acquire latch);
  Mcore.Latch.release latch

(* ---- Mstore ------------------------------------------------------------ *)

let test_mstore_matches_vstore () =
  (* Same operation sequence against Mstore and a plain Vstore.Store:
     snapshot_items must agree (Mstore is the same store, striped). *)
  let ms : int Mcore.Mstore.t = Mcore.Mstore.create ~buckets:4 ~bound:3 () in
  let vs : int Vstore.Store.t = Vstore.Store.create ~bound:3 () in
  let ops =
    [
      `W ("a", 0, 1); `W ("b", 0, 2); `W ("c", 0, 3);
      `W ("a", 1, 10); `D ("b", 1); `W ("d", 1, 40);
      `G (0, 1);
      `W ("a", 2, 100); `W ("c", 2, 300);
      `G (1, 2);
    ]
  in
  List.iter
    (function
      | `W (k, v, x) ->
          Mcore.Mstore.write ms k v x;
          Vstore.Store.write vs k v x
      | `D (k, v) ->
          Mcore.Mstore.delete ms k v;
          Vstore.Store.delete vs k v
      | `G (collect, query) ->
          Mcore.Mstore.gc ms ~collect ~query;
          Vstore.Store.gc vs ~collect ~query)
    ops;
  Alcotest.(check bool) "snapshots agree" true
    (Mcore.Mstore.snapshot_items ms
    = Vstore.Store.snapshot_items (Vstore.Store.snapshot vs));
  Alcotest.(check (option int)) "read_le agrees"
    (Vstore.Store.read_le vs "a" 2)
    (Mcore.Mstore.read_le ms "a" 2)

let test_mstore_parallel_disjoint_writes () =
  (* Domains writing disjoint key sets: every write must land, and the
     per-item version bound stays enforced. *)
  let ms : int Mcore.Mstore.t = Mcore.Mstore.create ~buckets:8 ~bound:3 () in
  let domains = 4 and keys = 200 in
  let body d () =
    for k = 0 to keys - 1 do
      Mcore.Mstore.write ms (Printf.sprintf "d%d-k%d" d k) 0 (d * 1000 + k)
    done
  in
  let workers = Array.init domains (fun d -> Domain.spawn (body d)) in
  Array.iter Domain.join workers;
  Alcotest.(check int) "all items present" (domains * keys)
    (Mcore.Mstore.item_count ms);
  Alcotest.(check (option int)) "spot value" (Some 2042)
    (Mcore.Mstore.read_le ms "d2-k42" 5);
  Alcotest.(check bool) "latches were exercised" true
    (Mcore.Mstore.latch_acquisitions ms >= domains * keys)

(* ---- Backend unit behaviour -------------------------------------------- *)

let test_backend_initial_state () =
  let b : int Mcore.Backend.t = Mcore.Backend.create ~sites:2 () in
  let s = Mcore.Backend.site b 0 in
  Alcotest.(check int) "u" 1 (Mcore.Backend.u s);
  Alcotest.(check int) "q" 0 (Mcore.Backend.q s);
  Alcotest.(check int) "g" (-1) (Mcore.Backend.g s);
  Alcotest.(check (list string)) "fresh backend is quiescent" []
    (Mcore.Backend.check_quiescent b)

let test_backend_update_query_advance () =
  let b : int Mcore.Backend.t = Mcore.Backend.create ~sites:2 () in
  Mcore.Backend.load b ~site:0 [ ("x", 1) ];
  Mcore.Backend.load b ~site:1 [ ("y", 2) ];
  let w = Mcore.Backend.worker b in
  (* A cross-site update commits in version 1 (both sites at u = 1). *)
  (match
     Mcore.Backend.run_update w ~root:0
       ~ops:
         [
           (0, Mcore.Backend.Read "x");
           (0, Mcore.Backend.Write ("x", 10));
           (1, Mcore.Backend.Write ("y", 20));
         ]
   with
  | Mcore.Backend.Committed ci ->
      Alcotest.(check int) "commits in version 1" 1 ci.final_version;
      Alcotest.(check (list (pair string (option int))))
        "read the preload" [ ("x", Some 1) ] ci.reads
  | Mcore.Backend.Aborted _ -> Alcotest.fail "uncontended update aborted");
  (* Before advancement queries still read version 0. *)
  let r = Mcore.Backend.run_query w ~root:0 ~reads:[ (0, "x"); (1, "y") ] in
  Alcotest.(check int) "query pinned at q = 0" 0 r.q_version;
  Alcotest.(check bool) "stale values" true
    (r.values = [ (0, "x", Some 1); (1, "y", Some 2) ]);
  (* Advancement publishes version 1. *)
  (match Mcore.Backend.advance w ~coordinator:0 with
  | `Completed newu -> Alcotest.(check int) "advanced to u = 2" 2 newu
  | `Busy -> Alcotest.fail "idle advancement refused");
  let r = Mcore.Backend.run_query w ~root:1 ~reads:[ (0, "x"); (1, "y") ] in
  Alcotest.(check int) "query sees version 1" 1 r.q_version;
  Alcotest.(check bool) "fresh values" true
    (r.values = [ (0, "x", Some 10); (1, "y", Some 20) ]);
  Alcotest.(check (list string)) "quiescent afterwards" []
    (Mcore.Backend.check_quiescent b)

let test_backend_advance_initiation_rules () =
  let b : int Mcore.Backend.t = Mcore.Backend.create ~sites:1 () in
  let w = Mcore.Backend.worker b in
  (match Mcore.Backend.advance w ~coordinator:0 with
  | `Completed 2 -> ()
  | _ -> Alcotest.fail "first round should complete to u = 2");
  (* Rounds with no intervening work keep succeeding (fresh rule: the
     previous round fully drained and collected). *)
  (match Mcore.Backend.advance w ~coordinator:0 with
  | `Completed 3 -> ()
  | _ -> Alcotest.fail "second round should complete to u = 3");
  let s = Mcore.Backend.site b 0 in
  Alcotest.(check int) "u" 3 (Mcore.Backend.u s);
  Alcotest.(check int) "q" 2 (Mcore.Backend.q s);
  Alcotest.(check int) "g" 1 (Mcore.Backend.g s)

let test_backend_slot_reuse () =
  (* Twelve rounds on one domain move u from 1 to 13, so every counter
     slot (version land 3) of both kinds is entered three times.  Each
     round's update and two-site queries take and release counts in the
     slots of the current u and q; after each round every slot must be
     back to zero and the site at rest. *)
  let module B = Mcore.Backend in
  let b : int B.t = B.create ~sites:2 () in
  B.load b ~site:0 [ ("x", 0) ];
  B.load b ~site:1 [ ("y", 0) ];
  let w = B.worker b in
  for round = 1 to 12 do
    (match
       B.run_update w ~root:(round mod 2)
         ~ops:[ (0, B.Write ("x", round)); (1, B.Write ("y", round)) ]
     with
    | B.Committed ci ->
        Alcotest.(check int)
          (Printf.sprintf "round %d commits in u" round)
          round ci.final_version
    | B.Aborted _ -> Alcotest.fail "uncontended update aborted");
    List.iter
      (fun root ->
        let r = B.run_query w ~root ~reads:[ (0, "x"); (1, "y") ] in
        Alcotest.(check int)
          (Printf.sprintf "round %d query pins q" round)
          (round - 1) r.q_version;
        Alcotest.(check bool)
          (Printf.sprintf "round %d query reads the last round's writes" round)
          true
          (r.values = [ (0, "x", Some (round - 1)); (1, "y", Some (round - 1)) ]))
      [ 0; 1 ];
    (match B.advance w ~coordinator:(round mod 2) with
    | `Completed newu ->
        Alcotest.(check int) (Printf.sprintf "round %d advances u" round)
          (round + 1) newu
    | `Busy -> Alcotest.fail "idle advancement refused");
    Alcotest.(check (list string))
      (Printf.sprintf "quiescent after round %d" round)
      [] (B.check_quiescent b);
    for i = 0 to 1 do
      let s = B.site b i in
      Alcotest.(check int) "u = q+1" (B.q s + 1) (B.u s);
      Alcotest.(check bool) "g >= u-3" true (B.g s >= B.u s - 3)
    done
  done

let test_backend_parallel_updates_commit_exactly_once () =
  (* Many domains updating overlapping keys: total increments to a
     read-modify-written register must equal total commits (striped
     locks + whole-txn retry make each commit atomic). *)
  let b : int Mcore.Backend.t = Mcore.Backend.create ~sites:1 () in
  Mcore.Backend.load b ~site:0 [ ("ctr", 0) ];
  let domains = 4 and iters = 200 in
  let commits = Atomic.make 0 in
  let body () =
    let w = Mcore.Backend.worker b in
    for _ = 1 to iters do
      match
        Mcore.Backend.run_update w ~root:0 ~ops:[ (0, Mcore.Backend.Read "ctr") ]
      with
      | Mcore.Backend.Committed _ -> Atomic.incr commits
      | Mcore.Backend.Aborted _ -> ()
    done
  in
  let workers = Array.init domains (fun _ -> Domain.spawn body) in
  Array.iter Domain.join workers;
  Alcotest.(check bool) "most updates commit" true
    (Atomic.get commits > domains * iters / 2);
  Alcotest.(check (list string)) "quiescent afterwards" []
    (Mcore.Backend.check_quiescent b);
  (* Merged metrics saw every commit exactly once. *)
  let m = Mcore.Backend.metrics b in
  Alcotest.(check int) "merged registries count all commits"
    (Atomic.get commits)
    (Sim.Metrics.total_commits m)

let test_backend_queries_never_block_advancement_mix () =
  (* Queries, updates and advancement racing across domains: the backend
     must come out quiescent with u = q + 1 and all counters drained. *)
  let b : int Mcore.Backend.t = Mcore.Backend.create ~sites:2 () in
  Mcore.Backend.load b ~site:0 [ ("a", 1) ];
  Mcore.Backend.load b ~site:1 [ ("b", 2) ];
  let iters = 300 in
  let body d () =
    let w = Mcore.Backend.worker b in
    for i = 1 to iters do
      if d = 0 && i mod 50 = 0 then
        ignore (Mcore.Backend.advance w ~coordinator:0)
      else if d mod 2 = 0 then
        ignore
          (Mcore.Backend.run_update w ~root:(d mod 2)
             ~ops:[ (0, Mcore.Backend.Write ("a", i)); (1, Mcore.Backend.Read "b") ])
      else
        ignore (Mcore.Backend.run_query w ~root:1 ~reads:[ (0, "a"); (1, "b") ])
    done
  in
  let workers = Array.init 4 (fun d -> Domain.spawn (body d)) in
  Array.iter Domain.join workers;
  Alcotest.(check (list string)) "quiescent after the storm" []
    (Mcore.Backend.check_quiescent b)

(* ---- Conformance: DES as the oracle ------------------------------------ *)

let conformance_seeds = [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]

let test_conformance_all_seeds () =
  List.iter
    (fun seed ->
      (* Odd seeds exercise the renumbering GC rule, even seeds the
         in-place rule — both store configurations must conform. *)
      let gc_renumber = seed mod 2 = 1 in
      match Mcore.Conform.check ~gc_renumber ~seed () with
      | Ok stats ->
          Alcotest.(check bool)
            (Printf.sprintf "seed %d does real work" seed)
            true
            (stats.Mcore.Conform.commits > 0 && stats.Mcore.Conform.queries > 0)
      | Error problems ->
          Alcotest.fail
            (Printf.sprintf "seed %d diverged:\n  %s" seed
               (String.concat "\n  " problems)))
    conformance_seeds

let test_conformance_sequential_cannot_convict_twin () =
  (* The pin-skipping twin is CORRECT on every deterministic schedule:
     sequential conformance passing against it is part of its spec (the
     injected bug is a pure race). *)
  match Mcore.Conform.check ~skip_pin_recheck:true ~seed:3 () with
  | Ok _ -> ()
  | Error problems ->
      Alcotest.fail
        ("twin diverged sequentially (bug is not a pure race):\n"
        ^ String.concat "\n" problems)

let test_convict_racy_twin () =
  (* Under real parallelism an advancement round fits between the twin's
     read of q and its bump; the harness must catch a query reading the
     version that round collected. *)
  let evidence = Mcore.Conform.convict_racy_twin ~domains:4 () in
  if evidence = [] then
    Alcotest.fail "race harness failed to convict the pin-skipping twin"

let test_race_harness_clears_backend () =
  (* The same harness against the real pin-and-recheck protocol: the
     guard must never fire and the backend must end quiescent. *)
  match Mcore.Conform.convict_racy_twin ~domains:4 ~seconds:1.0 ~twin:false () with
  | [] -> ()
  | evidence ->
      Alcotest.fail
        ("race harness convicted the real backend:\n"
        ^ String.concat "\n" evidence)

let test_workload_generation_deterministic () =
  let w1 = Mcore.Conform.generate ~seed:42 in
  let w2 = Mcore.Conform.generate ~seed:42 in
  Alcotest.(check bool) "same seed, same workload" true (w1 = w2);
  let w3 = Mcore.Conform.generate ~seed:43 in
  Alcotest.(check bool) "different seed, different workload" true (w1 <> w3)

(* ---- Metrics merge across domains --------------------------------------- *)

let test_per_domain_metrics_merge () =
  let b : int Mcore.Backend.t = Mcore.Backend.create ~sites:1 () in
  Mcore.Backend.load b ~site:0 [ ("k", 0) ];
  let per_domain = 50 in
  let body () =
    let w = Mcore.Backend.worker b in
    for _ = 1 to per_domain do
      ignore (Mcore.Backend.run_query w ~root:0 ~reads:[ (0, "k") ])
    done
  in
  let workers = Array.init 3 (fun _ -> Domain.spawn body) in
  Array.iter Domain.join workers;
  let m = Mcore.Backend.metrics b in
  Alcotest.(check int) "queries from all domains merged" (3 * per_domain)
    (Sim.Metrics.total_queries m)

let () =
  Alcotest.run "mcore"
    [
      ( "latch",
        [
          Alcotest.test_case "mutual exclusion under domains" `Quick
            test_latch_mutual_exclusion;
          Alcotest.test_case "try_acquire and release" `Quick
            test_latch_try_and_release;
          Alcotest.test_case "with_latch releases on exception" `Quick
            test_latch_releases_on_exception;
        ] );
      ( "mstore",
        [
          Alcotest.test_case "agrees with Vstore on one sequence" `Quick
            test_mstore_matches_vstore;
          Alcotest.test_case "parallel disjoint writes" `Quick
            test_mstore_parallel_disjoint_writes;
        ] );
      ( "backend",
        [
          Alcotest.test_case "initial state" `Quick test_backend_initial_state;
          Alcotest.test_case "update, query, advance" `Quick
            test_backend_update_query_advance;
          Alcotest.test_case "advancement initiation rules" `Quick
            test_backend_advance_initiation_rules;
          Alcotest.test_case "counter slots reused across 12 rounds" `Quick
            test_backend_slot_reuse;
          Alcotest.test_case "parallel updates commit exactly once" `Quick
            test_backend_parallel_updates_commit_exactly_once;
          Alcotest.test_case "mixed storm ends quiescent" `Quick
            test_backend_queries_never_block_advancement_mix;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "workload generation deterministic" `Quick
            test_workload_generation_deterministic;
          Alcotest.test_case "DES and mcore agree on 10 seeds" `Slow
            test_conformance_all_seeds;
          Alcotest.test_case "sequential schedules cannot convict the twin"
            `Quick test_conformance_sequential_cannot_convict_twin;
          Alcotest.test_case "parallel harness convicts the twin" `Slow
            test_convict_racy_twin;
          Alcotest.test_case "parallel harness clears the real backend" `Slow
            test_race_harness_clears_backend;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "per-domain registries merge" `Quick
            test_per_domain_metrics_merge;
        ] );
    ]
