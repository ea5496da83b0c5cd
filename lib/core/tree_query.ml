open Cluster_state

type plan = {
  at : int;
  keys : string list;
  selects : (string * string) list;
  children : plan list;
}

let reads ?(selects = []) at keys children = { at; keys; selects; children }

(* The tree driver over {!Query_core}: each subquery takes its node's
   counter for the duration of its subtree (enter/leave), the root's
   pinned counter is released by the core on completion. *)
let run cs ~plan =
  let plan =
    resolve_plan cs ~who:"Tree_query.run"
      ~node:(fun p -> (p.at, p.children))
      ~rebuild:(fun p at children -> { p with at; children })
      plan
  in
  let read_service = cs.config.Config.read_service_time in
  (* Execute the subquery at [p]; returns its composed results (own reads
     then children's, preorder).  [is_root] marks the pinned root counter,
     which must be released last — by the core, not here. *)
  let rec exec_subquery q parent_node (p : plan) ~is_root =
    let body () =
      let v = Query_core.version q in
      let nd, taken =
        if is_root then (Query_core.root_node q, false)
        else Query_core.enter_subquery q p.at
      in
      let own =
        List.map
          (fun key ->
            Sim.Engine.sleep read_service;
            (p.at, key, Vstore.Store.read_le (Node_state.store nd) key v))
          p.keys
      in
      (* Index probes ride the same subquery: same pin, same counter, the
         flat executor's select step. *)
      let probed =
        List.concat_map
          (fun (lo, hi) ->
            fst (Query_core.select q ~plan:`Index nd ~lo ~hi)
            |> List.map (fun (key, value) -> (p.at, key, Some value)))
          p.selects
      in
      let own = own @ probed in
      let child_results =
        Fanout.all cs.engine
          (List.map
             (fun child () -> exec_subquery q p.at child ~is_root:false)
             p.children)
      in
      (* Completion (§3.3 step 5): compose, decrement, commit.  Errors from
         children propagate only after our own counter is safely released. *)
      Query_core.leave_subquery q nd ~taken;
      let composed =
        List.concat_map
          (function Ok values -> values | Error e -> raise e)
          child_results
      in
      own @ composed
    in
    Net.Network.run_at cs.net ~src:parent_node ~dst:p.at body
  in
  fst
    (Query_core.run cs ~root:plan.at ~kind:`Read (fun q ->
         (exec_subquery q plan.at plan ~is_root:true, ())))
