open Cluster_state

let check cs =
  let violations = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let nodes = cs.nodes in
  Array.iter
    (fun nd ->
      if Node_state.alive nd then begin
        let i = Node_state.id nd in
        let u = Node_state.u nd and q = Node_state.q nd in
        if not (q < u && u <= q + 2) then
          fail "node%d: q < u <= q+2 violated (q=%d u=%d)" i q u;
        if not cs.config.Config.overlap_gc then begin
          let hw = Vstore.Store.high_water_versions (Node_state.store nd) in
          if hw > 3 then fail "node%d: %d live versions of some item" i hw
        end;
        (* Derived-data consistency: the secondary index must agree with
           the base store at every instant, not just at quiescence — its
           maintenance is synchronous with each store mutation. *)
        match Node_state.index nd with
        | None -> ()
        | Some ix ->
            List.iter
              (fail "node%d: %s" i)
              (Vindex.Index.check ix ~version:(Node_state.q nd))
      end)
    nodes;
  (* Cross-node version agreement only binds the synced copies.  An
     out-of-sync backup (demoted, resyncing after recovery) lags by design
     and re-earns membership through catch-up; its per-node invariants
     still hold, because it only ever holds a prefix of a valid primary
     history. *)
  let live = Array.to_list nodes |> List.filter (synced cs) in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if Node_state.id a < Node_state.id b then begin
            let ia = Node_state.id a and ib = Node_state.id b in
            if
              Node_state.u a <> Node_state.u b
              && Node_state.q a <> Node_state.q b
            then
              fail "nodes %d,%d: both u (%d,%d) and q (%d,%d) differ" ia ib
                (Node_state.u a) (Node_state.u b) (Node_state.q a)
                (Node_state.q b)
          end)
        live)
    live;
  List.rev !violations

let check_quiescent cs =
  let violations = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let live = Array.to_list cs.nodes |> List.filter (synced cs) in
  (match live with
  | [] -> ()
  | first :: rest ->
      let u0 = Node_state.u first and q0 = Node_state.q first in
      if u0 <> q0 + 1 then
        fail "node%d: quiescent but u=%d q=%d (expected u = q+1)"
          (Node_state.id first) u0 q0;
      List.iter
        (fun nd ->
          if Node_state.u nd <> u0 || Node_state.q nd <> q0 then
            fail "node%d: disagrees with node%d on versions (u=%d q=%d)"
              (Node_state.id nd) (Node_state.id first) (Node_state.u nd)
              (Node_state.q nd))
        rest);
  List.iter
    (fun nd ->
      let now_max = Vstore.Store.max_live_versions_now (Node_state.store nd) in
      if now_max > 2 then
        fail "node%d: quiescent but an item has %d live versions"
          (Node_state.id nd) now_max;
      (* Index <-> base consistency at quiesce: structure sound in both
         directions and a full-space probe at the node's query version
         byte-identical to the full ordered scan. *)
      match Node_state.index nd with
      | None -> ()
      | Some ix ->
          List.iter
            (fail "node%d: %s" (Node_state.id nd))
            (Vindex.Index.check ix ~version:(Node_state.q nd)))
    live;
  List.rev !violations
