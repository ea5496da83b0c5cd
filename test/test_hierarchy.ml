(* Hierarchical advancement (Config.tree_arity > 0) must be observationally
   equivalent to the paper's flat rounds: same final version numbers at
   every site, same committed data, same transaction outcomes — only the
   acknowledgment topology changes.  The workload below keeps transactions
   spaced in time and disjoint in keys, and reads results only after the
   cluster settles, so the comparison cannot depend on the transient
   message micro-interleavings that legitimately differ between layouts. *)

let nodes = 13
let coordinator = 0
let duration = 600.0

type summary = {
  uqg : (int * int * int) list;  (* per site, ascending *)
  commits : int;
  aborts : int;
  queries : int;
  advancements : int;
  finals : (string * int option) list;  (* settled value per key *)
  coord_egress : int;  (* messages the coordinator put on the wire *)
  coord_ingress : int list;  (* per site, messages it sent the coordinator *)
}

let run_one ~config ~data_sites =
  let engine = Sim.Engine.create ~seed:0xA11CEL ~trace:false () in
  let db : int Ava3.Cluster.t =
    Ava3.Cluster.create ~engine ~config ~latency:(Net.Latency.Constant 1.0)
      ~nodes ()
  in
  let key s = Printf.sprintf "a%d" s in
  List.iter
    (fun s -> Ava3.Cluster.load db ~node:s [ (key s, 100 + s) ])
    data_sites;
  Ava3.Cluster.start_periodic_advancement db ~coordinator ~period:50.0
    ~until:duration;
  let ds = Array.of_list data_sites in
  let nd = Array.length ds in
  (* Two-site updates every 10 time units; writes to one key repeat only
     every [nd] transactions, far apart, so no two ever conflict. *)
  for i = 0 to 39 do
    let root = ds.(i mod nd) in
    let other = ds.((i + 1) mod nd) in
    Sim.Engine.schedule engine
      ~delay:(5.0 +. (10.0 *. float_of_int i))
      (fun () ->
        ignore
          (Ava3.Cluster.run_update db ~root
             ~ops:
               [
                 Ava3.Update_exec.Write
                   { node = root; key = key root; value = 1000 + i };
                 Ava3.Update_exec.Write
                   { node = other; key = key other; value = 2000 + i };
               ]))
  done;
  (* Queries placed just before each round starts, when the previous round
     has long settled at every site. *)
  for i = 0 to 9 do
    let root = ds.(i mod nd) in
    Sim.Engine.schedule engine
      ~delay:(45.0 +. (50.0 *. float_of_int i))
      (fun () ->
        ignore (Ava3.Cluster.run_query db ~root ~reads:[ (root, key root) ]))
  done;
  let out = ref None in
  Sim.Engine.schedule engine ~delay:(duration +. 20.0) (fun () ->
      let rec settle n =
        if n = 0 then failwith "cluster would not settle"
        else
          match Ava3.Cluster.advance_and_wait db ~coordinator with
          | `Completed _ -> ()
          | `Busy ->
              Sim.Engine.sleep 10.0;
              settle (n - 1)
      in
      settle 8;
      settle 8;
      (match Ava3.Cluster.check_quiescent_invariants db with
      | [] -> ()
      | problems -> failwith (String.concat "; " problems));
      let finals =
        List.map
          (fun s ->
            let r = Ava3.Cluster.run_query db ~root:s ~reads:[ (s, key s) ] in
            match r.Ava3.Query_exec.values with
            | [ (_, k, v) ] -> (k, v)
            | _ -> assert false)
          data_sites
      in
      let stats = Ava3.Cluster.stats db in
      let net = Ava3.Cluster.network db in
      let egress = ref 0 in
      for dst = 0 to nodes - 1 do
        egress := !egress + Net.Network.link_count net ~src:coordinator ~dst
      done;
      out :=
        Some
          {
            uqg =
              List.init nodes (fun i ->
                  let n = Ava3.Cluster.node db i in
                  ( Ava3.Node_state.u n,
                    Ava3.Node_state.q n,
                    Ava3.Node_state.g n ));
            commits = stats.Ava3.Cluster.commits;
            aborts = stats.Ava3.Cluster.aborts;
            queries = stats.Ava3.Cluster.queries;
            advancements = stats.Ava3.Cluster.advancements;
            finals;
            coord_egress = !egress;
            coord_ingress =
              List.init nodes (fun src ->
                  Net.Network.link_count net ~src ~dst:coordinator);
          });
  Sim.Engine.run engine;
  match !out with Some s -> s | None -> failwith "final process never ran"

let all_sites = List.init nodes Fun.id
let versions = Alcotest.(list (triple int int int))
let finals = Alcotest.(list (pair string (option int)))

let check_equivalent name a b =
  Alcotest.check versions (name ^ ": final u/q/g per site") a.uqg b.uqg;
  Alcotest.check finals (name ^ ": settled values") a.finals b.finals;
  Alcotest.(check int) (name ^ ": commits") a.commits b.commits;
  Alcotest.(check int) (name ^ ": aborts") a.aborts b.aborts;
  Alcotest.(check int) (name ^ ": queries") a.queries b.queries;
  Alcotest.(check int) (name ^ ": advancements") a.advancements b.advancements

let config ~tree_arity ~partition_aware =
  { Ava3.Config.default with tree_arity; partition_aware }

let test_tree_matches_flat () =
  let flat =
    run_one ~config:(config ~tree_arity:0 ~partition_aware:false)
      ~data_sites:all_sites
  in
  Alcotest.(check int) "no aborts in a conflict-free run" 0 flat.aborts;
  List.iter
    (fun arity ->
      let tree =
        run_one ~config:(config ~tree_arity:arity ~partition_aware:false)
          ~data_sites:all_sites
      in
      check_equivalent (Printf.sprintf "arity %d" arity) flat tree;
      Alcotest.(check bool)
        (Printf.sprintf
           "arity %d coordinator egress (%d) below flat egress (%d)" arity
           tree.coord_egress flat.coord_egress)
        true
        (tree.coord_egress < flat.coord_egress))
    [ 2; 3; 8 ]

let test_partition_aware_matches_flat () =
  (* Data (and with it every transaction and query root) confined to five
     sites; the other eight ride along fire-and-forget and must still end
     at the same version numbers. *)
  let data_sites = [ 0; 3; 5; 8; 11 ] in
  let flat =
    run_one ~config:(config ~tree_arity:0 ~partition_aware:false) ~data_sites
  in
  let tree =
    run_one ~config:(config ~tree_arity:3 ~partition_aware:true) ~data_sites
  in
  check_equivalent "arity 3 + partition-aware" flat tree;
  Alcotest.(check bool)
    (Printf.sprintf "partition-aware egress (%d) below flat egress (%d)"
       tree.coord_egress flat.coord_egress)
    true
    (tree.coord_egress < flat.coord_egress);
  (* At arity 0 the data-empty sites sit in the depth-one tree's
     fire-and-forget tail: they still receive every frame, but never
     acknowledge to the coordinator. *)
  let depth_one =
    run_one ~config:(config ~tree_arity:0 ~partition_aware:true) ~data_sites
  in
  check_equivalent "arity 0 + partition-aware" flat depth_one;
  let from_empty r =
    List.filteri (fun s _ -> not (List.mem s data_sites)) r.coord_ingress
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "data-empty sites acknowledge in the flat run (%d)"
       (from_empty flat))
    true
    (from_empty flat > 0);
  Alcotest.(check int) "data-empty sites send the coordinator nothing" 0
    (from_empty depth_one)

(* [tree_arity = 0] is the depth-one relay tree: every site a direct child
   of the coordinator.  With [nodes - 1] children the explicit arity builds
   the same tree, so the two runs must agree event for event — here under
   retransmission, where long updates hold Phase 1 past several retry
   periods and every participant sees duplicate frames while its local
   share still waits on the update barrier or its force. *)
let retransmission_run ?(advancement_retry = 2.0) ~tree_arity () =
  let nodes = 5 in
  let engine = Sim.Engine.create ~seed:0xD0B1EL () in
  let config =
    {
      Ava3.Config.default with
      tree_arity;
      advancement_retry;
      disk_force_latency = 0.5;
      write_service_time = 3.0;
    }
  in
  let db : int Ava3.Cluster.t =
    Ava3.Cluster.create ~engine ~config ~latency:(Net.Latency.Constant 1.0)
      ~nodes ()
  in
  let key s j = Printf.sprintf "s%d-%d" s j in
  for s = 0 to nodes - 1 do
    Ava3.Cluster.load db ~node:s (List.init 4 (fun j -> (key s j, j)))
  done;
  Ava3.Cluster.start_periodic_advancement db ~coordinator:0 ~period:15.0
    ~until:150.0;
  for i = 0 to 23 do
    let root = i mod nodes in
    let write s =
      Ava3.Update_exec.Write { node = s; key = key s (i mod 4); value = i }
    in
    Sim.Engine.schedule engine ~delay:(6.0 *. float_of_int i) (fun () ->
        ignore
          (Ava3.Cluster.run_update db ~root
             ~ops:
               [
                 write root;
                 write ((root + 1) mod nodes);
                 write ((root + 3) mod nodes);
               ]))
  done;
  Sim.Engine.run engine;
  let trace =
    List.map
      (Format.asprintf "%a" Sim.Trace.pp_entry)
      (Sim.Trace.entries (Sim.Engine.trace engine))
  in
  ( Ava3.Cluster.stats db,
    Sim.Metrics.to_json (Ava3.Cluster.metrics_snapshot db),
    trace )

let test_depth_one_is_arity_zero () =
  let stats0, metrics0, trace0 = retransmission_run ~tree_arity:0 () in
  let stats1, metrics1, trace1 = retransmission_run ~tree_arity:4 () in
  let line st = Format.asprintf "%a" Ava3.Cluster.pp_stats st in
  Alcotest.(check string) "Cluster.stats" (line stats0) (line stats1);
  Alcotest.(check bool) "Cluster.stats record" true (stats0 = stats1);
  Alcotest.(check string) "metrics snapshot" metrics0 metrics1;
  Alcotest.(check (list string)) "trace" trace0 trace1;
  (* Guard against a vacuous pass: without retransmission the same run
     sends fewer messages. *)
  let quiet, _, _ =
    retransmission_run ~advancement_retry:1000.0 ~tree_arity:0 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "the run retransmits (%d vs %d messages)"
       stats0.Ava3.Cluster.messages quiet.Ava3.Cluster.messages)
    true
    (stats0.Ava3.Cluster.messages > quiet.Ava3.Cluster.messages)

let () =
  Alcotest.run "hierarchy"
    [
      ( "equivalence",
        [
          Alcotest.test_case "tree == flat (all sites participate)" `Quick
            test_tree_matches_flat;
          Alcotest.test_case "tree == flat (partition-aware)" `Quick
            test_partition_aware_matches_flat;
          Alcotest.test_case "arity 0 == arity nodes-1 under retransmission"
            `Quick test_depth_one_is_arity_zero;
        ] );
    ]
