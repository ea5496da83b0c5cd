type node = { store : int Vstore.Store.t; locks : Lockmgr.Lock_table.t }

type t = {
  engine : Sim.Engine.t;
  net : unit Net.Network.t;
  nodes : node array;
  mutable clock : int;  (** commit-timestamp oracle *)
  active_snapshots : (int, int) Hashtbl.t;  (** query id -> snapshot ts *)
  mutable commits_since_gc : int;
  mutable commits : int;
  mutable aborts : int;
  mutable queries : int;
}

let name = "mvcc-unbounded"

(* Prune after this many commits. *)
let gc_every = 20

let create ~engine ?latency ~nodes () =
  let group = Lockmgr.Lock_table.new_group () in
  {
      engine;
      net = Net.Network.create ~engine ~nodes ?latency ();
      nodes =
        Array.init nodes (fun _ ->
            {
              store = Vstore.Store.create ();
              locks = Lockmgr.Lock_table.create ~group ();
            });
      clock = 0;
      active_snapshots = Hashtbl.create 32;
      commits_since_gc = 0;
      commits = 0;
      aborts = 0;
      queries = 0;
    }

(* Prune versions below the oldest active snapshot.  Runs inline (after a
   batch of commits, and when a snapshot retires) rather than as a
   background process, so the engine drains naturally. *)
let prune t =
  let horizon =
    Hashtbl.fold (fun _ ts acc -> min ts acc) t.active_snapshots t.clock
  in
  Array.iter (fun nd -> Vstore.Store.prune_below nd.store ~keep:horizon) t.nodes

let load t ~node items =
  List.iter (fun (k, v) -> Vstore.Store.write t.nodes.(node).store k 0 v) items

let node_count t = Array.length t.nodes

exception Deadlocked

let at_node t ~root ~node f =
  if node = root then f ()
  else Net.Network.call t.net ~src:root ~dst:node f

let attempt_update t ~root ~ops =
  let txn = Common.fresh_txn_id () in
  let touched = Hashtbl.create 4 in
  let buffered : (int * string, int) Hashtbl.t = Hashtbl.create 8 in
  let acquire ~node ~key mode =
    match
      Lockmgr.Lock_table.acquire t.nodes.(node).locks ~owner:txn ~key mode
    with
    | `Granted -> ()
    | `Deadlock -> raise Deadlocked
  in
  let release_all () =
    Hashtbl.iter
      (fun n () -> Lockmgr.Lock_table.release_all t.nodes.(n).locks ~owner:txn)
      touched
  in
  let run_op = function
    | Workload.Db_intf.Read { node; key } ->
        at_node t ~root ~node (fun () ->
            Hashtbl.replace touched node ();
            acquire ~node ~key Lockmgr.Lock_table.Shared;
            Sim.Engine.sleep Common.read_time;
            ignore
              (match Hashtbl.find_opt buffered (node, key) with
              | Some v -> Some v
              | None -> Vstore.Store.read_le t.nodes.(node).store key max_int))
    | Workload.Db_intf.Write { node; key; value } ->
        at_node t ~root ~node (fun () ->
            Hashtbl.replace touched node ();
            acquire ~node ~key Lockmgr.Lock_table.Exclusive;
            Sim.Engine.sleep Common.write_time;
            Hashtbl.replace buffered (node, key) value)
  in
  match List.iter run_op ops with
  | () ->
      (* Commit: take a timestamp and install the writes as new versions. *)
      t.clock <- t.clock + 1;
      let ts = t.clock in
      Hashtbl.iter
        (fun n () ->
          at_node t ~root ~node:n (fun () ->
              Hashtbl.iter
                (fun (wn, key) value ->
                  if wn = n then Vstore.Store.write t.nodes.(n).store key ts value)
                buffered;
              Lockmgr.Lock_table.release_all t.nodes.(n).locks ~owner:txn))
        touched;
      t.commits <- t.commits + 1;
      t.commits_since_gc <- t.commits_since_gc + 1;
      if t.commits_since_gc >= gc_every then begin
        t.commits_since_gc <- 0;
        prune t
      end;
      `Committed
  | exception Deadlocked ->
      release_all ();
      t.aborts <- t.aborts + 1;
      `Aborted

let submit_update t ~root ~ops =
  Common.retry ~max_attempts:10 ~backoff:5.0 (fun () ->
      attempt_update t ~root ~ops)

(* Queries: lock-free reads of the snapshot at the oracle value taken at
   start.  The snapshot registration holds the GC horizon back. *)
let submit_query t ~root ~reads =
  let qid = Common.fresh_txn_id () in
  let snapshot = t.clock in
  Hashtbl.replace t.active_snapshots qid snapshot;
  let t0 = Sim.Engine.now t.engine in
  let read_one (node, key) =
    at_node t ~root ~node (fun () ->
        Sim.Engine.sleep Common.read_time;
        ignore (Vstore.Store.read_le t.nodes.(node).store key snapshot))
  in
  List.iter read_one reads;
  Hashtbl.remove t.active_snapshots qid;
  prune t;
  t.queries <- t.queries + 1;
  Some
    {
      Workload.Db_intf.q_latency = Sim.Engine.now t.engine -. t0;
      q_staleness = Some 0.0;
    }

let max_versions_ever t =
  Array.fold_left
    (fun acc nd -> max acc (Vstore.Store.high_water_versions nd.store))
    0 t.nodes

let extra_stats t =
  let live_chain_max =
    Array.fold_left
      (fun acc nd -> max acc (Vstore.Store.max_live_versions_now nd.store))
      0 t.nodes
  in
  let total_items, total_versions =
    Array.fold_left
      (fun (items, versions) nd ->
        let i = ref items and v = ref versions in
        Vstore.Store.iter
          (fun _ entries ->
            incr i;
            v := !v + List.length entries)
          nd.store;
        (!i, !v))
      (0, 0) t.nodes
  in
  [
    ("chain_max_ever", float_of_int (max_versions_ever t));
    ("chain_max_now", float_of_int live_chain_max);
    ( "chain_mean_now",
      if total_items = 0 then 0.0
      else float_of_int total_versions /. float_of_int total_items );
    ("commits", float_of_int t.commits);
    ("aborts", float_of_int t.aborts);
  ]

let metrics_snapshot _ = None

(* No secondary index in this baseline: the driver's scan/join streams
   count as failed queries here. *)
let submit_scan _ ~root:_ ~range:_ = None
let submit_join _ ~root:_ ~build:_ ~probe:_ = None
