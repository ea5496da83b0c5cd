(* Secondary-index tests: Vindex unit coverage (attach bootstrap, listener
   maintenance across every mutation path, probe edge cases, join-operator
   agreement) and the end-to-end indexed-vs-full-scan equivalence oracle —
   [`Both_check] selects and joins racing updates, advancement and a
   nemesis, across ten seeds under both GC renumbering rules, with the
   index↔base invariant probed throughout and at quiescence. *)

module Cluster = Ava3.Cluster
module Update = Ava3.Update_exec
module Qx = Ava3.Query_exec
module Node_state = Ava3.Node_state
module Tq = Ava3.Tree_query
module Index = Vindex.Index
module Join = Vindex.Join
module Store = Vstore.Store

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let no_msgs what msgs = Alcotest.(check (list string)) what [] msgs

(* The attribute shared with stress/dbsim: a dense three-digit bucket of the
   integer value, so range predicates are meaningful and collisions occur. *)
let extract v = Printf.sprintf "a%03d" (((v mod 1000) + 1000) mod 1000)
let full_range = ("a000", "a999")

let with_index_cluster ?config ?(nodes = 3) ?(seed = 42L) body =
  let engine = Sim.Engine.create ~seed () in
  let db : int Cluster.t =
    Cluster.create ~engine ?config ~index:extract ~nodes ()
  in
  Sim.Engine.spawn engine (fun () -> body db);
  Sim.Engine.run engine;
  db

let rows_of (r : int Qx.result) =
  List.filter_map
    (fun (n, k, v) -> Option.map (fun v -> (n, k, v)) v)
    r.Qx.values

(* {1 Vindex unit coverage} *)

let test_attach_bootstrap () =
  (* Attaching to a populated store indexes its current contents; the probe
     contract holds immediately. *)
  let st : int Store.t = Store.create () in
  for i = 0 to 19 do
    Store.write st (Printf.sprintf "k%02d" i) 0 (i * 7)
  done;
  Store.delete st "k03" 0;
  let ix = Index.attach st ~extract in
  no_msgs "consistent after bootstrap" (Index.check ix ~version:0);
  let lo, hi = full_range in
  let probed = Index.probe ix ~lo ~hi 0 in
  check_int "tombstone excluded" 19 (List.length probed);
  check_bool "probe = full_scan" true (probed = Index.full_scan ix ~lo ~hi 0)

let test_listener_paths () =
  (* Every mutation funnels through the listener: write (in-place and new
     version), delete, copy_forward, prune.  The index answers per-version
     and stays audit-clean throughout. *)
  let st : int Store.t = Store.create () in
  let ix = Index.attach st ~extract in
  Store.write st "x" 0 5;
  Store.write st "y" 0 6;
  Store.write st "x" 1 7;
  Store.delete st "y" 1;
  let lo, hi = full_range in
  check_bool "v0 sees both" true
    (Index.probe ix ~lo ~hi 0 = [ ("x", 5); ("y", 6) ]);
  check_bool "v1 sees the survivor's new value" true
    (Index.probe ix ~lo ~hi 1 = [ ("x", 7) ]);
  check_bool "attribute predicate follows the version" true
    (Index.probe ix ~lo:"a005" ~hi:"a005" 1 = []
    && Index.probe ix ~lo:"a007" ~hi:"a007" 1 = [ ("x", 7) ]);
  Store.copy_forward st "y" ~src:0 ~dst:2;
  check_bool "copy_forward resurfaces y at v2" true
    (Index.probe ix ~lo ~hi 2 = [ ("x", 7); ("y", 6) ]);
  no_msgs "consistent v0" (Index.check ix ~version:0);
  no_msgs "consistent v2" (Index.check ix ~version:2);
  Store.prune_below st ~keep:1;
  no_msgs "consistent after prune" (Index.check ix ~version:2);
  check_bool "post-prune probe intact" true
    (Index.probe ix ~lo ~hi 2 = [ ("x", 7); ("y", 6) ]);
  let s = Index.stats ix in
  check_bool "listener fired for every mutation" true (s.Index.updates >= 5);
  (* In-place overwrite moves the key between attribute buckets. *)
  Store.write st "x" 2 123;
  check_bool "rebucketed" true
    (Index.probe ix ~lo:"a123" ~hi:"a123" 2 = [ ("x", 123) ]
    && Index.probe ix ~lo:"a007" ~hi:"a007" 2 = []);
  Index.detach ix;
  Store.write st "z" 2 1;
  (* Detached: the store no longer feeds the index. *)
  check_bool "detached index is frozen" true
    (Index.probe ix ~lo:"a001" ~hi:"a001" 2 = [])

(* The store notifies only for items whose live entries change.  [n] items
   preloaded at version 0: the first collection leaves every one of them
   as it is under the in-place rule but renumbers each one under the
   paper's rule, and a lone tombstone's removal is a change under both. *)
let test_listener_counts () =
  let n = 300 in
  let preloaded = List.init n (Printf.sprintf "k%03d") in
  let preload gc_renumber =
    let st : int Store.t = Store.create ~bound:3 ~gc_renumber () in
    List.iteri (fun i k -> Store.write st k 0 i) preloaded;
    st
  in
  (* The keys one call notifies, with multiplicity, ascending. *)
  let notified st f =
    let keys = ref [] in
    Store.set_listener st (Some (fun k -> keys := k :: !keys));
    f ();
    Store.set_listener st None;
    List.sort compare !keys
  in
  let keys = Alcotest.(check (list string)) in
  List.iter
    (fun gc_renumber ->
      let label s =
        Printf.sprintf "%s (%s)" s
          (if gc_renumber then "renumber" else "in-place")
      in
      let renumbered = if gc_renumber then preloaded else [] in
      let st = preload gc_renumber in
      let visited = Store.gc_items_visited st in
      let first = notified st (fun () -> Store.gc st ~collect:0 ~query:1) in
      check_int (label "first gc visits every item") n
        (Store.gc_items_visited st - visited);
      keys (label "first gc notifies each renumbered item once") renumbered
        first;
      (* Deleting a key nothing else holds leaves a lone tombstone. *)
      Store.delete st "gone" 1;
      let second = notified st (fun () -> Store.gc st ~collect:1 ~query:2) in
      keys (label "lone tombstone removal notifies") ("gone" :: renumbered)
        second;
      check_int (label "lone tombstone removed") n (Store.item_count st);
      (* The same history with an index attached: one refresh per
         notification, and the audit stays clean. *)
      let st = preload gc_renumber in
      let ix = Index.attach st ~extract in
      Store.gc st ~collect:0 ~query:1;
      Store.delete st "gone" 1;
      Store.gc st ~collect:1 ~query:2;
      check_int (label "one refresh per notification")
        (List.length first + 1 + List.length second)
        (Index.stats ix).Index.updates;
      no_msgs (label "index audit") (Index.check ix ~version:2))
    [ false; true ]

(* A posting holds the key's record.  Garbage collection removes a key
   reduced to a lone tombstone, and a later write makes a new record for
   it: the old record's postings must be gone by then, and the new ones
   must point at the new record — with the same attribute as before, so
   the attribute diff alone would leave an old posting in place. *)
let test_handle_lifetime () =
  let st : int Store.t = Store.create ~bound:3 () in
  let ix = Index.attach st ~extract in
  Store.write st "k" 0 5;
  Store.write st "other" 0 6;
  Store.delete st "k" 1;
  Store.gc st ~collect:0 ~query:1;
  check_bool "lone tombstone removed" true (Store.handle st "k" = None);
  no_msgs "audit clean after removal" (Index.check ix ~version:1);
  Store.write st "k" 2 1005;
  let lo, hi = full_range in
  check_bool "old pin no longer sees k" true
    (Index.probe ix ~lo ~hi 1 = [ ("other", 6) ]);
  check_bool "new pin sees the new record" true
    (Index.probe ix ~lo ~hi 2 = [ ("k", 1005); ("other", 6) ]
    && Index.probe ix ~lo:"a005" ~hi:"a005" 2 = [ ("k", 1005) ]);
  no_msgs "audit clean at the old pin" (Index.check ix ~version:1);
  no_msgs "audit clean at the new pin" (Index.check ix ~version:2)

(* The shared attribute extractor equals its Printf reference. *)
let test_default_extract () =
  let reference v = Printf.sprintf "a%03d" (((v mod 1000) + 1000) mod 1000) in
  List.iter
    (fun v ->
      Alcotest.(check string)
        (string_of_int v) (reference v)
        (Baseline.Ava3_db.default_extract v))
    (List.init 6001 (fun i -> i - 3000) @ [ min_int; max_int; max_int - 1 ])

let test_probe_edges () =
  let st : int Store.t = Store.create () in
  let ix = Index.attach st ~extract in
  Store.write st "k" 0 500;
  check_bool "empty range (lo > hi)" true
    (Index.probe ix ~lo:"a900" ~hi:"a100" 0 = []);
  check_bool "equal bounds hit" true
    (Index.probe ix ~lo:"a500" ~hi:"a500" 0 = [ ("k", 500) ]);
  check_bool "equal bounds miss" true
    (Index.probe ix ~lo:"a501" ~hi:"a501" 0 = []);
  check_bool "future version resolves to newest le" true
    (Index.probe ix ~lo:"a500" ~hi:"a500" 9 = [ ("k", 500) ]);
  check_bool "probe below first version sees nothing" true
    (Index.probe ix ~lo:"a000" ~hi:"a999" (-1) = [])

let test_join_agreement () =
  (* hash_join's output depends only on the rows of its inputs, not on
     their order, and equals the nested-loop reference: duplicate join
     keys, rows matching nothing, reversed and shuffled sides, an empty
     side. *)
  let build =
    List.init 30 (fun i -> (i mod 3, Printf.sprintf "b%02d" i, i * 13))
  in
  let probe =
    List.init 41 (fun i -> (i mod 4, Printf.sprintf "p%02d" i, i * 7))
  in
  let key_of (_, _, v) = extract (v mod 40) in
  let compare_build = compare and compare_probe = compare in
  let nested ~build ~probe =
    Join.nested_loop ~compare_build ~compare_probe ~build ~probe
      ~build_key:key_of ~probe_key:key_of
  in
  let hashed ~build ~probe =
    Join.hash_join ~compare_build ~compare_probe ~build ~probe
      ~build_key:key_of ~probe_key:key_of
  in
  let reference = nested ~build ~probe in
  check_bool "join produces matches" true (reference <> []);
  let matches b = List.length (List.filter (fun (b', _) -> b' = b) reference) in
  check_bool "a build row matches several probe rows" true
    (List.exists (fun (b, _) -> matches b > 1) reference);
  let shuffle seed rows =
    let rng = Random.State.make [| seed |] in
    List.map (fun r -> (Random.State.bits rng, r)) rows
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
    |> List.map snd
  in
  List.iter
    (fun (what, build, probe) ->
      check_bool (what ^ ": hash_join = nested_loop") true
        (hashed ~build ~probe = nested ~build ~probe);
      check_bool (what ^ ": same pairs as the sorted inputs") true
        (hashed ~build ~probe = reference))
    [
      ("sorted", build, probe);
      ("reversed", List.rev build, List.rev probe);
      ("shuffled", shuffle 1 build, shuffle 2 probe);
      ("reversed build, shuffled probe", List.rev build, shuffle 3 probe);
    ];
  (* Several build rows on one join key, each matching several probe
     rows: pairs stay grouped by build row, probe rows ascending. *)
  let build = [ (0, "y", 1); (0, "x", 41); (1, "x", 81) ]
  and probe = [ (2, "q", 1); (0, "p", 1); (1, "z", 2) ] in
  check_bool "duplicate join keys" true
    (hashed ~build ~probe
    = [
        ((0, "x", 41), (0, "p", 1));
        ((0, "x", 41), (2, "q", 1));
        ((0, "y", 1), (0, "p", 1));
        ((0, "y", 1), (2, "q", 1));
        ((1, "x", 81), (0, "p", 1));
        ((1, "x", 81), (2, "q", 1));
      ]
    && hashed ~build ~probe = nested ~build ~probe);
  check_bool "empty build side" true (hashed ~build:[] ~probe = []);
  check_bool "empty probe side" true (hashed ~build ~probe:[] = []);
  check_bool "nested_loop agrees on empty sides" true
    (nested ~build:[] ~probe = [] && nested ~build ~probe:[] = [])

(* {1 Cluster-level behaviour} *)

let test_select_plans_agree_quiescent () =
  (* At quiescence the three plans return byte-identical rows. *)
  let db =
    with_index_cluster (fun db ->
        for n = 0 to 2 do
          Cluster.load db ~node:n
            (List.init 8 (fun i -> (Printf.sprintf "n%d-k%d" n i, (n * 100) + i)))
        done;
        ignore
          (Cluster.run_update db ~root:0
             ~ops:[ Update.Write { node = 1; key = "n1-k0"; value = 555 } ]);
        ignore (Cluster.advance_and_wait db ~coordinator:0);
        let lo, hi = full_range in
        let ranges = List.init 3 (fun n -> (n, lo, hi)) in
        let indexed = Cluster.run_select db ~root:0 ~plan:`Index ~ranges in
        let scanned = Cluster.run_select db ~root:0 ~plan:`Full_scan ~ranges in
        let checked = Cluster.run_select db ~root:0 ~plan:`Both_check ~ranges in
        check_bool "index = full_scan" true
          (rows_of indexed = rows_of scanned);
        check_bool "both_check agrees" true
          (rows_of indexed = rows_of checked);
        check_int "all rows" 24 (List.length (rows_of indexed));
        (* Narrow predicate only returns matching attributes. *)
        let narrow =
          Cluster.run_select db ~root:2 ~plan:`Both_check
            ~ranges:[ (1, "a555", "a555") ]
        in
        check_bool "predicate filter" true
          (rows_of narrow = [ (1, "n1-k0", 555) ]))
  in
  no_msgs "quiescent invariants" (Cluster.check_quiescent_invariants db)

let test_tree_selects () =
  (* Index probes ride the subquery tree's pin: a tree plan with selects
     returns the same rows as run_select over the same partitions. *)
  let db =
    with_index_cluster (fun db ->
        for n = 0 to 2 do
          Cluster.load db ~node:n
            (List.init 6 (fun i -> (Printf.sprintf "n%d-k%d" n i, (n * 10) + i)))
        done;
        ignore (Cluster.advance_and_wait db ~coordinator:0);
        let lo, hi = full_range in
        let plan =
          Tq.reads ~selects:[ (lo, hi) ] 0 []
            [ Tq.reads ~selects:[ (lo, hi) ] 1 [] [];
              Tq.reads ~selects:[ (lo, hi) ] 2 [] [] ]
        in
        let tree = Cluster.run_tree_query db ~plan in
        let flat =
          Cluster.run_select db ~root:0 ~plan:`Both_check
            ~ranges:(List.init 3 (fun n -> (n, lo, hi)))
        in
        check_int "same pin" flat.Qx.version tree.Qx.version;
        check_bool "same rows" true
          (List.sort compare (rows_of tree)
          = List.sort compare (rows_of flat));
        check_int "all rows" 18 (List.length (rows_of tree)))
  in
  no_msgs "quiescent invariants" (Cluster.check_quiescent_invariants db)

let test_recovery_reattaches () =
  (* Crash wipes the node; recovery replays the WAL and rebuilds the index
     over the replayed store, so post-recovery Both_check selects agree and
     the index↔base invariant holds. *)
  let db =
    with_index_cluster (fun db ->
        for n = 0 to 2 do
          Cluster.load db ~node:n
            (List.init 5 (fun i -> (Printf.sprintf "n%d-k%d" n i, n + i)))
        done;
        ignore
          (Cluster.run_update db ~root:1
             ~ops:[ Update.Write { node = 1; key = "n1-k2"; value = 77 } ]);
        Cluster.crash db ~node:1;
        Sim.Engine.sleep 10.0;
        Cluster.recover db ~node:1;
        Sim.Engine.sleep 10.0;
        ignore
          (Cluster.run_update db ~root:1
             ~ops:[ Update.Write { node = 1; key = "n1-k3"; value = 88 } ]);
        ignore (Cluster.advance_and_wait db ~coordinator:0);
        let lo, hi = full_range in
        let r =
          Cluster.run_select db ~root:0 ~plan:`Both_check
            ~ranges:(List.init 3 (fun n -> (n, lo, hi)))
        in
        check_bool "recovered node serves its committed write" true
          (List.mem (1, "n1-k2", 77) (rows_of r)
          && List.mem (1, "n1-k3", 88) (rows_of r)))
  in
  no_msgs "quiescent invariants" (Cluster.check_quiescent_invariants db)

let test_checkpoint_reattaches () =
  (* A checkpoint swaps the node's store in from a snapshot; the index must
     follow the replacement store. *)
  let db =
    with_index_cluster (fun db ->
        Cluster.load db ~node:0
          (List.init 5 (fun i -> (Printf.sprintf "k%d" i, i)));
        ignore
          (Cluster.run_update db ~root:0
             ~ops:[ Update.Write { node = 0; key = "k0"; value = 42 } ]);
        ignore (Cluster.advance_and_wait db ~coordinator:0);
        check_bool "checkpoint taken" true (Cluster.checkpoint db ~node:0);
        ignore
          (Cluster.run_update db ~root:0
             ~ops:[ Update.Write { node = 0; key = "k1"; value = 43 } ]);
        ignore (Cluster.advance_and_wait db ~coordinator:0);
        let lo, hi = full_range in
        let r =
          Cluster.run_select db ~root:0 ~plan:`Both_check
            ~ranges:[ (0, lo, hi) ]
        in
        check_bool "post-checkpoint writes indexed" true
          (List.mem (0, "k0", 42) (rows_of r)
          && List.mem (0, "k1", 43) (rows_of r)))
  in
  no_msgs "quiescent invariants" (Cluster.check_quiescent_invariants db)

(* {1 The equivalence oracle} *)

(* One adversarial run: concurrent single- and multi-node updates, periodic
   advancement, a nemesis (crash + partition + slow link), and [`Both_check]
   selects and joins in flight.  Any divergence between the index plan and
   the full-scan plan at the same pinned version raises [Index_mismatch];
   the index↔base invariant is probed throughout and at quiescence.  Then,
   drained, the [`Index] and [`Full_scan] join plans must return identical
   pairs at the same pin. *)
let oracle_run ~seed ~gc_renumber =
  let label = Printf.sprintf "seed %Ld, gc_renumber %b" seed gc_renumber in
  let engine = Sim.Engine.create ~seed () in
  let nodes = 3 and keys = 10 in
  (* Finite RPC timeout + advancement retransmission: mandatory whenever a
     nemesis drops messages, or blocked callers pin the run forever. *)
  let config =
    {
      Ava3.Config.default with
      gc_renumber;
      rpc_timeout = 15.0;
      advancement_retry = 25.0;
      max_retries = 3;
      retry_backoff_base = 8.0;
    }
  in
  let db : int Cluster.t =
    Cluster.create ~engine ~config ~index:extract ~nodes ()
  in
  let sessions = Session.per_partition ~seed:0L db in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  for n = 0 to nodes - 1 do
    Cluster.load db ~node:n
      (List.init keys (fun i -> (Printf.sprintf "n%d-k%d" n i, (n * keys) + i)))
  done;
  let horizon = 360.0 in
  let plan =
    Net.Nemesis.random_plan ~rng ~nodes ~horizon:(horizon *. 0.7) ~crashes:1
      ~partitions:1 ~slow_links:1 ~min_duration:20.0 ~max_duration:40.0
      ~extra_latency:2.0 ()
  in
  Net.Nemesis.install ~engine (Cluster.nemesis_target db) plan;
  let mismatches = ref [] and violations = ref [] in
  let selects_ok = ref 0 and joins_ok = ref 0 in
  let random_attr_range () =
    let a = Sim.Rng.int rng 1000 and b = Sim.Rng.int rng 1000 in
    (extract (min a b), extract (max a b))
  in
  (* Updates: single-node and cross-node writes over the shared keyspace,
     and deletes of each node's first three keys, which half the ops
     address: GC removes an indexed key's lone tombstone, and a later write
     re-creates the key. *)
  for u = 0 to 47 do
    Sim.Engine.schedule engine
      ~delay:(Sim.Rng.float rng (horizon *. 0.85))
      (fun () ->
        let root = Sim.Rng.int rng nodes in
        let op () =
          let node = Sim.Rng.int rng nodes in
          let hot = Sim.Rng.bool rng in
          let i = if hot then Sim.Rng.int rng 3 else Sim.Rng.int rng keys in
          let key = Printf.sprintf "n%d-k%d" node i in
          if hot && Sim.Rng.int rng 3 = 0 then Update.Delete { node; key }
          else Update.Write { node; key; value = (u * 37) mod 1000 }
        in
        let ops = if u mod 3 = 0 then [ op (); op () ] else [ op () ] in
        ignore (Flat_txn.run sessions.(root) ops))
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
  (* Both_check selects and joins in flight — the oracle proper.  Node_down
     and Rpc_timeout are legitimate under the nemesis; Index_mismatch is
     the conviction we must never see. *)
  for s = 0 to 11 do
    Sim.Engine.schedule engine
      ~delay:(Sim.Rng.float rng (horizon *. 0.95))
      (fun () ->
        let root = Sim.Rng.int rng nodes in
        let lo, hi = random_attr_range () in
        let ranges = List.init nodes (fun n -> (n, lo, hi)) in
        try
          if s mod 6 = 5 then (
            let blo, bhi = random_attr_range ()
            and plo, phi = random_attr_range () in
            let parts = List.init nodes Fun.id in
            ignore
              (Cluster.run_join db ~root ~plan:`Both_check
                 ~build:(parts, blo, bhi) ~probe:(parts, plo, phi));
            incr joins_ok)
          else (
            ignore (Cluster.run_select db ~root ~plan:`Both_check ~ranges);
            incr selects_ok)
        with
        | Qx.Index_mismatch { node; version; indexed; full_scan } ->
            mismatches :=
              Printf.sprintf
                "%s: index/full-scan divergence at node %d v%d (%d vs %d)"
                label node version indexed full_scan
              :: !mismatches
        | Net.Network.Node_down _ | Net.Network.Rpc_timeout _ -> ())
  done;
  (* Continuous index↔base invariant probes (check_invariants audits the
     index against the store at the query version). *)
  for p = 0 to 23 do
    Sim.Engine.schedule engine
      ~delay:(float_of_int p *. 15.0)
      (fun () -> violations := Cluster.check_invariants db @ !violations)
  done;
  Sim.Engine.run engine;
  Alcotest.(check (list string)) (label ^ ": no mismatches") [] !mismatches;
  Alcotest.(check (list string)) (label ^ ": no invariant violations") []
    !violations;
  Alcotest.(check (list string))
    (label ^ ": quiescent invariants")
    [] (Cluster.check_quiescent_invariants db);
  check_bool (label ^ ": oracle exercised selects") true (!selects_ok > 0);
  (* Join plan equality at quiescence: same pin, identical pairs. *)
  Sim.Engine.spawn engine (fun () ->
      let parts = List.init nodes Fun.id in
      let build = (parts, "a000", "a499") and probe = (parts, "a000", "a999") in
      let j_ix = Cluster.run_join db ~root:0 ~plan:`Index ~build ~probe in
      let j_fs = Cluster.run_join db ~root:0 ~plan:`Full_scan ~build ~probe in
      check_int (label ^ ": joins share the pin")
        j_ix.Qx.join.Qx.version j_fs.Qx.join.Qx.version;
      check_bool (label ^ ": join pairs identical across plans") true
        (j_ix.Qx.pairs = j_fs.Qx.pairs);
      ignore !joins_ok);
  Sim.Engine.run engine;
  no_msgs
    (label ^ ": quiescent invariants after joins")
    (Cluster.check_quiescent_invariants db)

let test_equivalence_oracle () =
  List.iter
    (fun gc_renumber ->
      for s = 1 to 10 do
        oracle_run ~seed:(Int64.of_int (100 + s)) ~gc_renumber
      done)
    [ false; true ]

let () =
  Alcotest.run "index"
    [
      ( "vindex",
        [
          Alcotest.test_case "attach bootstrap" `Quick test_attach_bootstrap;
          Alcotest.test_case "listener paths" `Quick test_listener_paths;
          Alcotest.test_case "listener counts" `Quick test_listener_counts;
          Alcotest.test_case "handle lifetime" `Quick test_handle_lifetime;
          Alcotest.test_case "default extract" `Quick test_default_extract;
          Alcotest.test_case "probe edges" `Quick test_probe_edges;
          Alcotest.test_case "join agreement" `Quick test_join_agreement;
        ] );
      ( "cluster",
        [
          Alcotest.test_case "select plans agree" `Quick
            test_select_plans_agree_quiescent;
          Alcotest.test_case "tree selects" `Quick test_tree_selects;
          Alcotest.test_case "recovery reattaches" `Quick
            test_recovery_reattaches;
          Alcotest.test_case "checkpoint reattaches" `Quick
            test_checkpoint_reattaches;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "10 seeds x both gc rules" `Quick
            test_equivalence_oracle;
        ] );
    ]
