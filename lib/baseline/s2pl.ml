type node = {
  store : (string, int) Hashtbl.t;
  locks : Lockmgr.Lock_table.t;
}

type t = {
  engine : Sim.Engine.t;
  net : unit Net.Network.t;
  nodes : node array;
  mutable commits : int;
  mutable aborts : int;
  mutable query_count : int;
}

let name = "s2pl"

let create ~engine ?latency ~nodes () =
  let group = Lockmgr.Lock_table.new_group () in
  {
    engine;
    net = Net.Network.create ~engine ~nodes ?latency ();
    nodes =
      Array.init nodes (fun _ ->
          {
            store = Hashtbl.create 256;
            locks = Lockmgr.Lock_table.create ~group ();
          });
    commits = 0;
    aborts = 0;
    query_count = 0;
  }

let load t ~node items =
  List.iter (fun (k, v) -> Hashtbl.replace t.nodes.(node).store k v) items

let node_count t = Array.length t.nodes

exception Deadlocked

let acquire t ~txn ~node ~key mode =
  match Lockmgr.Lock_table.acquire t.nodes.(node).locks ~owner:txn ~key mode with
  | `Granted -> ()
  | `Deadlock -> raise Deadlocked

let at_node t ~root ~node f =
  if node = root then f ()
  else Net.Network.call t.net ~src:root ~dst:node f

(* One attempt at a read-write transaction under strict 2PL with deferred
   writes applied at commit. *)
let attempt_update t ~root ~ops =
  let txn = Common.fresh_txn_id () in
  let touched = Hashtbl.create 4 in
  let buffered : (int * string, int) Hashtbl.t = Hashtbl.create 8 in
  let release_all () =
    Hashtbl.iter
      (fun n () -> Lockmgr.Lock_table.release_all t.nodes.(n).locks ~owner:txn)
      touched
  in
  let run_op op =
    match op with
    | Workload.Db_intf.Read { node; key } ->
        at_node t ~root ~node (fun () ->
            Hashtbl.replace touched node ();
            acquire t ~txn ~node ~key Lockmgr.Lock_table.Shared;
            Sim.Engine.sleep Common.read_time;
            ignore
              (match Hashtbl.find_opt buffered (node, key) with
              | Some v -> Some v
              | None -> Hashtbl.find_opt t.nodes.(node).store key))
    | Workload.Db_intf.Write { node; key; value } ->
        at_node t ~root ~node (fun () ->
            Hashtbl.replace touched node ();
            acquire t ~txn ~node ~key Lockmgr.Lock_table.Exclusive;
            Sim.Engine.sleep Common.write_time;
            Hashtbl.replace buffered (node, key) value)
  in
  match List.iter run_op ops with
  | () ->
      (* Commit: apply buffered writes at each node, then release. *)
      Hashtbl.iter
        (fun n () ->
          at_node t ~root ~node:n (fun () ->
              Hashtbl.iter
                (fun (wn, key) value ->
                  if wn = n then Hashtbl.replace t.nodes.(n).store key value)
                buffered;
              Lockmgr.Lock_table.release_all t.nodes.(n).locks ~owner:txn))
        touched;
      t.commits <- t.commits + 1;
      `Committed
  | exception Deadlocked ->
      release_all ();
      t.aborts <- t.aborts + 1;
      `Aborted

let submit_update t ~root ~ops =
  Common.retry ~max_attempts:10 ~backoff:5.0 (fun () ->
      attempt_update t ~root ~ops)

(* Queries are plain transactions that take shared locks — the source of
   the interference this baseline exists to exhibit. *)
let submit_query t ~root ~reads =
  let txn = Common.fresh_txn_id () in
  let touched = Hashtbl.create 4 in
  let t0 = Sim.Engine.now t.engine in
  let release_all () =
    Hashtbl.iter
      (fun n () -> Lockmgr.Lock_table.release_all t.nodes.(n).locks ~owner:txn)
      touched
  in
  let read_one (node, key) =
    at_node t ~root ~node (fun () ->
        Hashtbl.replace touched node ();
        acquire t ~txn ~node ~key Lockmgr.Lock_table.Shared;
        Sim.Engine.sleep Common.read_time;
        ignore (Hashtbl.find_opt t.nodes.(node).store key))
  in
  match List.iter read_one reads with
  | () ->
      release_all ();
      t.query_count <- t.query_count + 1;
      Some
        {
          Workload.Db_intf.q_latency = Sim.Engine.now t.engine -. t0;
          q_staleness = Some 0.0;
        }
  | exception Deadlocked ->
      release_all ();
      (* A deadlocked query retries once from scratch. *)
      None

let max_versions_ever _ = 1

let extra_stats t =
  let sum f =
    Array.fold_left (fun acc nd -> acc +. f nd.locks) 0.0 t.nodes
  in
  [
    ("lock_waits", sum (fun l -> float_of_int (Lockmgr.Lock_table.waits l)));
    ("lock_wait_time", sum Lockmgr.Lock_table.total_wait_time);
    ("deadlocks", sum (fun l -> float_of_int (Lockmgr.Lock_table.deadlocks l)));
    ("commits", float_of_int t.commits);
    ("aborts", float_of_int t.aborts);
  ]

let metrics_snapshot _ = None

(* No secondary index in this baseline: the driver's scan/join streams
   count as failed queries here. *)
let submit_scan _ ~root:_ ~range:_ = None
let submit_join _ ~root:_ ~build:_ ~probe:_ = None
