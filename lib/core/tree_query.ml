open Cluster_state

type plan = {
  at : int;
  keys : string list;
  selects : (string * string) list;
  children : plan list;
}

let reads ?(selects = []) at keys children = { at; keys; selects; children }

let rec plan_nodes plan = plan.at :: List.concat_map plan_nodes plan.children

let validate plan =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n then
        invalid_arg "Tree_query.run: plan visits a node twice"
      else Hashtbl.replace seen n ())
    (plan_nodes plan)

(* The tree driver over {!Query_core}: each subquery takes its node's
   counter for the duration of its subtree (enter/leave), the root's
   pinned counter is released by the core on completion. *)
let run cs ~plan =
  validate plan;
  let root = plan.at in
  let q = Query_core.start cs ~root ~kind:`Read in
  let v = Query_core.version q in
  let read_service = cs.config.Config.read_service_time in
  (* Execute the subquery at [p]; returns its composed results (own reads
     then children's, preorder).  [is_root] marks the pinned root counter,
     which must be released last — by the core, not here. *)
  let rec exec_subquery parent_node (p : plan) ~is_root =
    let body () =
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
      (* Index probes ride the same subquery: same pin, same counter, one
         probe charge plus one per returned row (the flat executor's cost
         model). *)
      let probed =
        List.concat_map
          (fun (lo, hi) ->
            Sim.Engine.sleep read_service;
            let rows = Query_core.probe_index q nd ~lo ~hi in
            Sim.Engine.sleep (read_service *. float_of_int (List.length rows));
            List.map (fun (key, value) -> (p.at, key, Some value)) rows)
          p.selects
      in
      let own = own @ probed in
      let child_results =
        Fanout.all cs.engine
          (List.map
             (fun child () -> exec_subquery p.at child ~is_root:false)
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
    if p.at = parent_node then body ()
    else Net.Network.call cs.net ~src:parent_node ~dst:p.at body
  in
  match exec_subquery root plan ~is_root:true with
  | values -> Query_core.complete q ~values
  | exception e -> Query_core.on_error q e
