open Cluster_state

type 'v op =
  | Read of { node : int; key : string }
  | Write of { node : int; key : string; value : 'v }
  | Read_modify_write of { node : int; key : string; f : 'v option -> 'v }
  | Delete of { node : int; key : string }
  | Begin_at of int
  | Pause of float

type abort_reason = Subtxn.abort_reason

type 'v commit_info = {
  txn_id : int;
  final_version : int;
  reads : (string * 'v option) list;
  started_at : float;
  finished_at : float;
  participants : (int * float) list;
      (* (node, local commit time): the instant the subtransaction released
         its locks there — what orders same-version conflicts *)
}

type 'info txn_outcome = 'info Txn_core.outcome =
  | Committed of 'info
  | Aborted of { txn_id : int; reason : abort_reason }
  | Root_down of { root : int }

type 'v outcome = 'v commit_info txn_outcome

(* The flat executor: the root drives every operation itself, shipping
   remote ones over the network.  Behaviourally this is an R* transaction
   whose children each execute one batch of work at a time; the concurrent
   tree model lives in {!Tree_txn}.  The lifecycle — registry, orphan
   guard, prepare/commit rounds, abort — is {!Txn_core}'s. *)
let run cs ~root ~ops =
  match Txn_core.create cs ~root with
  | None -> Root_down { root }
  | Some t ->
      let reads = ref [] in
      let exec = function
        | Read { node = n; key } ->
            let v = Txn_core.at_node t n (fun sub -> Subtxn.read cs sub key) in
            reads := (key, v) :: !reads
        | Write { node = n; key; value } ->
            Txn_core.at_node t n (fun sub -> Subtxn.write cs sub key value)
        | Read_modify_write { node = n; key; f } ->
            Txn_core.at_node t n (fun sub -> Subtxn.read_modify_write cs sub key f)
        | Delete { node = n; key } ->
            Txn_core.at_node t n (fun sub -> Subtxn.delete cs sub key)
        | Begin_at n -> Txn_core.at_node t n (fun _sub -> ())
        | Pause d -> Sim.Engine.sleep d
      in
      Txn_core.protect t (fun () ->
          ignore (Txn_core.sub t root : 'v Subtxn.t);
          List.iter exec ops;
          (* Prepare round: each participant releases its shared locks and
             reports the version it reached (the paper's prepared(V(T_i))). *)
          let prepared =
            Txn_core.at_sub_nodes t (fun sub -> Subtxn.prepare cs sub)
          in
          let final_version = Txn_core.decide_version t prepared in
          let participants =
            Txn_core.at_sub_nodes t (fun sub ->
                Subtxn.commit cs sub ~final_version;
                (Node_state.id (Subtxn.node sub), now cs))
          in
          Txn_core.finish_commit t ~final_version;
          Committed
            {
              txn_id = Txn_core.txn_id t;
              final_version;
              reads = List.rev !reads;
              started_at = Txn_core.started_at t;
              finished_at = now cs;
              participants;
            })
