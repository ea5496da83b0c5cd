open Cluster_state

type abort_reason = Subtxn.abort_reason

type 'v t = {
  cs : 'v Cluster_state.t;
  root : int;
  txn_id : int;
  started_at : float;
  state : Subtxn.state ref;
  subs : (int, 'v Subtxn.t) Hashtbl.t;
}

type 'info outcome =
  | Committed of 'info
  | Aborted of { txn_id : int; reason : abort_reason }
  | Root_down of { root : int }

(* Updates run at primaries only.  Callers keep addressing partitions
   (0 .. nparts-1); each partition resolves to its current primary site
   through [home_site], so a transaction started after a failover lands on
   the promoted backup transparently. *)
let create cs ~root =
  let root = home_site cs root in
  let root_node = node cs root in
  if not (Node_state.alive root_node) then begin
    (* No transaction id was allocated and nothing ran anywhere: this is
       a rejection, not an abort, and is counted as such. *)
    Sim.Metrics.record cs.metrics (Sim.Event.Root_down { root });
    None
  end
  else
    Some
      {
        cs;
        root;
        txn_id = Node_state.fresh_txn_id root_node;
        started_at = now cs;
        state = ref Subtxn.Running;
        subs = Hashtbl.create 8;
      }

let txn_id t = t.txn_id
let root t = t.root
let started_at t = t.started_at
let running t = !(t.state) = Subtxn.Running

(* Highest version any subtransaction currently runs in; carried with new
   subtransaction dispatch when the §10 piggybacking is on. *)
let carried t =
  Hashtbl.fold (fun _ s acc -> max acc (Subtxn.version s)) t.subs 0

let register t n ~carried =
  let sub =
    Subtxn.start t.cs ~txn_id:t.txn_id ~state:t.state ~node:(node t.cs n)
      ~carried
  in
  Hashtbl.replace t.subs n sub;
  (match !(t.state) with
  | Subtxn.Running -> ()
  | Subtxn.Aborting | Subtxn.Finished ->
      (* Orphaned dispatch: the transaction aborted (RPC timeout) while
         this request was in flight, so [abort_all] has already run and
         will never see this subtransaction.  Roll it back here or its
         update counter leaks and blocks Phase 1 of every future
         advancement. *)
      Subtxn.abort t.cs sub;
      raise (Subtxn.Txn_abort `Deadlock));
  sub

let sub t n =
  let n = home_site t.cs n in
  match Hashtbl.find_opt t.subs n with
  | Some s -> s
  | None -> register t n ~carried:(carried t)

let find_sub t n = Hashtbl.find_opt t.subs (home_site t.cs n)

let sub_list t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.subs []
  |> List.sort (fun a b ->
         compare (Node_state.id (Subtxn.node a)) (Node_state.id (Subtxn.node b)))

let sub_versions t =
  Hashtbl.fold (fun _ s acc -> Subtxn.version s :: acc) t.subs []

let at_node t n f =
  let n = home_site t.cs n in
  Net.Network.run_at t.cs.net ~src:t.root ~dst:n (fun () -> f (sub t n))

let at_sub t s f =
  Net.Network.run_at t.cs.net ~src:t.root
    ~dst:(Node_state.id (Subtxn.node s))
    (fun () -> f s)

let at_sub_nodes t f = List.map (fun s -> at_sub t s f) (sub_list t)

type 'v savepoint = { sp_subs : (int * 'v Subtxn.savepoint) list }

let savepoint t =
  {
    sp_subs =
      List.map
        (fun s ->
          ( Node_state.id (Subtxn.node s),
            at_sub t s (fun s -> Subtxn.savepoint t.cs s) ))
        (sub_list t);
  }

let rollback_to t sp =
  List.iter
    (fun s ->
      let n = Node_state.id (Subtxn.node s) in
      match List.assoc_opt n sp.sp_subs with
      | Some mark -> at_sub t s (fun s -> Subtxn.rollback_to t.cs s mark)
      | None ->
          (* The subtransaction was dispatched inside the scope: its whole
             life is being rolled back, so abort it outright and drop it
             from the registry (a later operation at the node starts
             fresh). *)
          at_sub t s (fun s -> Subtxn.abort t.cs s);
          Hashtbl.remove t.subs n)
    (sub_list t);
  Sim.Metrics.record t.cs.metrics
    (Sim.Event.Savepoint_rollback { txn = t.txn_id; root = t.root })

let release_savepoint _t _sp =
  (* Merging a scope into its parent keeps every write and lock: savepoints
     carry no per-scope resources beyond the marks themselves. *)
  ()

let decide_version t versions =
  let final_version = List.fold_left max 0 versions in
  if List.exists (fun v -> v <> final_version) versions then begin
    Sim.Metrics.record t.cs.metrics
      (Sim.Event.Version_mismatch { txn = t.txn_id; root = t.root });
    (* Synchronous-advancement baseline: a mismatch cannot be repaired,
       so the decision is to abort (detected before any participant
       commits). *)
    if t.cs.config.Config.abort_on_version_mismatch then
      raise (Subtxn.Txn_abort `Version_mismatch)
  end;
  final_version

let finish_commit t ~final_version =
  t.state := Subtxn.Finished;
  note t.cs
    (Sim.Event.Commit
       { txn = t.txn_id; root = t.root; version = final_version })

let abort_all t reason =
  (* Bookkeeping runs on direct references: sessions at nodes that have
     crashed since are orphans and rolling them back is harmless.
     Participants that already committed (possible only when a node dies
     mid-commit-round) are past the point of no return and are left
     alone by Subtxn.abort. *)
  t.state := Subtxn.Aborting;
  List.iter (fun s -> Subtxn.abort t.cs s) (sub_list t);
  note t.cs (Sim.Event.Abort { txn = t.txn_id; root = t.root; reason });
  Aborted { txn_id = t.txn_id; reason }

let protect t body =
  try body () with
  | Subtxn.Txn_abort reason -> abort_all t reason
  | Net.Network.Node_down n -> abort_all t (`Node_down n)
  | Net.Network.Rpc_timeout n -> abort_all t (`Rpc_timeout n)
