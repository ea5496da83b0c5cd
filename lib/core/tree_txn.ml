open Cluster_state

type 'v step =
  | Read of string
  | Write of string * 'v
  | Read_modify_write of string * ('v option -> 'v)
  | Delete of string
  | Pause of float

type 'v plan = { at : int; work : 'v step list; children : 'v plan list }

type 'v commit_info = {
  txn_id : int;
  final_version : int;
  reads : (int * string * 'v option) list;
  started_at : float;
  finished_at : float;
}

type 'info txn_outcome = 'info Txn_core.outcome =
  | Committed of 'info
  | Aborted of { txn_id : int; reason : Subtxn.abort_reason }
  | Root_down of { root : int }

type 'v outcome = 'v commit_info txn_outcome

(* The tree driver over {!Txn_core}: subtransactions fan out along plan
   edges and run concurrently; prepared versions travel bottom-up, the
   commit decision flows back down the same edges. *)
let run cs ~plan =
  let plan =
    resolve_plan cs ~who:"Tree_txn.run"
      ~node:(fun p -> (p.at, p.children))
      ~rebuild:(fun p at children -> { p with at; children })
      plan
  in
  let root = plan.at in
  match Txn_core.create cs ~root with
  | None -> Root_down { root }
  | Some t ->
      let reads = ref [] in
      let exec_step sub = function
        | Read key ->
            let v = Subtxn.read cs sub key in
            reads := (Node_state.id (Subtxn.node sub), key, v) :: !reads
        | Write (key, value) -> Subtxn.write cs sub key value
        | Read_modify_write (key, f) -> Subtxn.read_modify_write cs sub key f
        | Delete key -> Subtxn.delete cs sub key
        | Pause d -> Sim.Engine.sleep d
      in
      (* Execute the subtree rooted at [p], whose parent runs at
         [parent_node]; returns the subtree's prepared version — the maximum
         of this subtransaction's version and its children's (the version
         number travelling up with the prepared message). *)
      let rec exec_subtree parent_node (p : 'v plan) ~carried =
        let body () =
          let sub = Txn_core.register t p.at ~carried in
          List.iter (exec_step sub) p.work;
          let own = Subtxn.version sub in
          (* Children are dispatched concurrently, each carrying the version
             their parent had reached (§10 piggybacking uses it). *)
          let child_results =
            Fanout.all cs.engine
              (List.map
                 (fun child () -> exec_subtree p.at child ~carried:own)
                 p.children)
          in
          let child_versions =
            List.map (function Ok v -> v | Error e -> raise e) child_results
          in
          (* Prepared: own work and all children done; release read locks. *)
          let prepared = Subtxn.prepare cs sub in
          List.fold_left max prepared child_versions
        in
        Net.Network.run_at cs.net ~src:parent_node ~dst:p.at body
      in
      (* Commit flows down the tree edges. *)
      let rec commit_subtree parent_node (p : 'v plan) ~final_version =
        let body () =
          (match Txn_core.find_sub t p.at with
          | Some sub when not (Subtxn.finished sub) ->
              Subtxn.commit cs sub ~final_version
          | _ -> ());
          let results =
            Fanout.all cs.engine
              (List.map
                 (fun child () -> commit_subtree p.at child ~final_version)
                 p.children)
          in
          List.iter (function Ok () -> () | Error e -> raise e) results
        in
        Net.Network.run_at cs.net ~src:parent_node ~dst:p.at body
      in
      Txn_core.protect t (fun () ->
          (* The bottom-up maximum over the tree equals the registry's
             maximum: versions are final once prepared, so the shared
             decision logic sees the same [V(T)] the root received. *)
          let (_ : int) = exec_subtree root plan ~carried:0 in
          let final_version =
            Txn_core.decide_version t (Txn_core.sub_versions t)
          in
          commit_subtree root plan ~final_version;
          Txn_core.finish_commit t ~final_version;
          Committed
            {
              txn_id = Txn_core.txn_id t;
              final_version;
              reads = List.rev !reads;
              started_at = Txn_core.started_at t;
              finished_at = now cs;
            })
