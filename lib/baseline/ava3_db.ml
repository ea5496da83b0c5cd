type t = {
  db : int Ava3.Cluster.t;
  use_tree : bool;
  indexed : bool;
  scan_plan : Ava3.Query_exec.select_plan;
}

let name = "ava3"

(* Standard secondary attribute for int-valued stores: the value modulo
   1000, zero-padded so lexicographic order matches numeric order, which
   lets normalized [0,1] ranges map onto contiguous attribute intervals.
   The thousand strings are built once: index maintenance and every probe
   candidate call the extractor, so it allocates nothing. *)
let attributes =
  Array.init 1000 (fun r ->
      String.init 4 (fun i ->
          if i = 0 then 'a'
          else Char.chr (Char.code '0' + (r / [| 100; 10; 1 |].(i - 1) mod 10))))

let default_extract v = attributes.(((v mod 1000) + 1000) mod 1000)

(* A normalized range endpoint in the {!default_extract} encoding. *)
let attr_of f =
  let f = Float.min 1.0 (Float.max 0.0 f) in
  Printf.sprintf "a%03d" (min 999 (int_of_float (f *. 1000.0)))

let four_version =
  {
    Ava3.Config.default with
    abort_on_version_mismatch = true;
    retain_extra_version = true;
  }

let create ~engine ?config ?latency ?(advancement_period = 100.0)
    ?(advancement_until = 10_000.0) ?(use_tree = false) ?index
    ?(scan_plan = `Index) ~nodes () =
  let db = Ava3.Cluster.create ~engine ?config ?latency ?index ~nodes () in
  if advancement_period > 0.0 then
    Ava3.Cluster.start_periodic_advancement db ~coordinator:0
      ~period:advancement_period ~until:advancement_until;
  { db; use_tree; indexed = Option.is_some index; scan_plan }

let cluster t = t.db
let load t ~node items = Ava3.Cluster.load t.db ~node items
let node_count t = Ava3.Cluster.node_count t.db

let to_op = function
  | Workload.Db_intf.Read { node; key } -> Ava3.Update_exec.Read { node; key }
  | Workload.Db_intf.Write { node; key; value } ->
      Ava3.Update_exec.Write { node; key; value }

(* Build a one-level tree: the root's own operations plus one concurrent
   child per remote node touched. *)
let tree_plan ~root ops =
  let to_step = function
    | Workload.Db_intf.Read { key; _ } -> Ava3.Tree_txn.Read key
    | Workload.Db_intf.Write { key; value; _ } -> Ava3.Tree_txn.Write (key, value)
  in
  let node_of = function
    | Workload.Db_intf.Read { node; _ } | Workload.Db_intf.Write { node; _ } ->
        node
  in
  let by_node = Hashtbl.create 4 in
  List.iter
    (fun op ->
      let n = node_of op in
      let steps = Option.value (Hashtbl.find_opt by_node n) ~default:[] in
      Hashtbl.replace by_node n (to_step op :: steps))
    ops;
  let work =
    List.rev (Option.value (Hashtbl.find_opt by_node root) ~default:[])
  in
  let children =
    Hashtbl.fold
      (fun n steps acc ->
        if n = root then acc
        else
          { Ava3.Tree_txn.at = n; work = List.rev steps; children = [] } :: acc)
      by_node []
    |> List.sort (fun a b -> compare a.Ava3.Tree_txn.at b.Ava3.Tree_txn.at)
  in
  { Ava3.Tree_txn.at = root; work; children }

let restart_outcome : _ Ava3.Txn_core.outcome -> _ = function
  | Committed _ -> `Committed
  | Aborted _ | Root_down _ -> `Aborted

let submit_update t ~root ~ops =
  let attempt =
    if t.use_tree then
      let plan = tree_plan ~root ops in
      fun () -> restart_outcome (Ava3.Cluster.run_tree_update t.db ~plan)
    else
      let ops = List.map to_op ops in
      fun () -> restart_outcome (Ava3.Cluster.run_update t.db ~root ~ops)
  in
  Common.retry ~max_attempts:10 ~backoff:5.0 attempt

let submit_query t ~root ~reads =
  match Ava3.Cluster.run_query t.db ~root ~reads with
  | result ->
      Some
        {
          Workload.Db_intf.q_latency =
            result.Ava3.Query_exec.finished_at -. result.Ava3.Query_exec.started_at;
          q_staleness = result.Ava3.Query_exec.staleness;
        }
  | exception Net.Network.Node_down _ -> None
  | exception Net.Network.Rpc_timeout _ -> None

let query_outcome (result : int Ava3.Query_exec.result) =
  Some
    {
      Workload.Db_intf.q_latency =
        result.Ava3.Query_exec.finished_at -. result.Ava3.Query_exec.started_at;
      q_staleness = result.Ava3.Query_exec.staleness;
    }

let submit_scan t ~root ~range:(fl, fh) =
  if not t.indexed then None
  else begin
    let lo = attr_of (Float.min fl fh) and hi = attr_of (Float.max fl fh) in
    let ranges =
      List.init (Ava3.Cluster.partitions t.db) (fun n -> (n, lo, hi))
    in
    match Ava3.Cluster.run_select t.db ~root ~plan:t.scan_plan ~ranges with
    | result -> query_outcome result
    | exception Net.Network.Node_down _ -> None
    | exception Net.Network.Rpc_timeout _ -> None
  end

let submit_join t ~root ~build:(bl, bh) ~probe:(pl, ph) =
  if not t.indexed then None
  else begin
    let parts = List.init (Ava3.Cluster.partitions t.db) Fun.id in
    let side (fl, fh) =
      (parts, attr_of (Float.min fl fh), attr_of (Float.max fl fh))
    in
    match
      Ava3.Cluster.run_join t.db ~root ~plan:t.scan_plan ~build:(side (bl, bh))
        ~probe:(side (pl, ph))
    with
    | { Ava3.Query_exec.join; _ } -> query_outcome join
    | exception Net.Network.Node_down _ -> None
    | exception Net.Network.Rpc_timeout _ -> None
  end

let max_versions_ever t = (Ava3.Cluster.stats t.db).Ava3.Cluster.max_versions_ever
let metrics_snapshot t = Some (Ava3.Cluster.metrics_snapshot t.db)

let extra_stats t =
  let s = Ava3.Cluster.stats t.db in
  let mismatch_aborts =
    List.fold_left
      (fun acc n -> acc + n.Sim.Metrics.aborts_version_mismatch)
      0
      (Ava3.Cluster.metrics_snapshot t.db)
  in
  [
    ("commits", float_of_int s.Ava3.Cluster.commits);
    ("aborts", float_of_int s.Ava3.Cluster.aborts);
    ("mismatch_aborts", float_of_int mismatch_aborts);
    ("advancements", float_of_int s.Ava3.Cluster.advancements);
    ("mtf_data", float_of_int s.Ava3.Cluster.mtf_data_access);
    ("mtf_commit", float_of_int s.Ava3.Cluster.mtf_commit_time);
    ("lock_waits", float_of_int s.Ava3.Cluster.lock_waits);
    ("lock_wait_time", s.Ava3.Cluster.lock_wait_time);
    ("deadlocks", float_of_int s.Ava3.Cluster.deadlocks);
    ("messages", float_of_int s.Ava3.Cluster.messages);
  ]
