type t = {
  locking : int Vstore.Store.t Common.locking;
  mutable clock : int;  (** commit-timestamp oracle *)
  active_snapshots : (int, int) Hashtbl.t;  (** query id -> snapshot ts *)
}

let name = "mvcc-unbounded"

(* Prune after this many commits. *)
let gc_every = 20

let create ~engine ~nodes () =
  {
    locking = Common.locking ~engine ~nodes (fun () -> Vstore.Store.create ());
    clock = 0;
    active_snapshots = Hashtbl.create 32;
  }

let stores t = t.locking.Common.stores

(* Prune versions below the oldest active snapshot.  Runs inline (after a
   batch of commits, and when a snapshot retires) rather than as a
   background process, so the engine drains naturally. *)
let prune t =
  let horizon =
    Hashtbl.fold (fun _ ts acc -> min ts acc) t.active_snapshots t.clock
  in
  Array.iter (fun s -> Vstore.Store.prune_below s ~keep:horizon) (stores t)

let load t ~node items =
  List.iter (fun (k, v) -> Vstore.Store.write (stores t).(node) k 0 v) items

let node_count t = Array.length (stores t)

(* Commit takes its timestamp once, before the commit RPCs: commits running
   in parallel advance [clock] while they are in flight. *)
let submit_update t ~root ~ops =
  let install () =
    t.clock <- t.clock + 1;
    let ts = t.clock in
    fun ~node key value -> Vstore.Store.write (stores t).(node) key ts value
  in
  let outcome = Common.update t.locking ~root ~ops ~install in
  if outcome = Workload.Db_intf.Committed && t.locking.commits mod gc_every = 0
  then prune t;
  outcome

(* Queries: lock-free reads of the snapshot at the oracle value taken at
   start.  The snapshot registration holds the GC horizon back. *)
let submit_query t ~root ~reads =
  let qid = Common.fresh_txn_id () in
  let snapshot = t.clock in
  Hashtbl.replace t.active_snapshots qid snapshot;
  let t0 = Sim.Engine.now t.locking.engine in
  let read_one (node, key) =
    Net.Network.run_at t.locking.net ~src:root ~dst:node (fun () ->
        Sim.Engine.sleep Common.read_time;
        ignore (Vstore.Store.read_le (stores t).(node) key snapshot))
  in
  List.iter read_one reads;
  Hashtbl.remove t.active_snapshots qid;
  prune t;
  Some
    {
      Workload.Db_intf.q_latency = Sim.Engine.now t.locking.engine -. t0;
      q_staleness = Some 0.0;
    }

let max_versions_ever t =
  Array.fold_left
    (fun acc s -> max acc (Vstore.Store.high_water_versions s))
    0 (stores t)

let extra_stats t =
  let live_chain_max =
    Array.fold_left
      (fun acc s -> max acc (Vstore.Store.max_live_versions_now s))
      0 (stores t)
  in
  let total_items, total_versions =
    Array.fold_left
      (fun (items, versions) s ->
        let i = ref items and v = ref versions in
        Vstore.Store.iter
          (fun _ entries ->
            incr i;
            v := !v + List.length entries)
          s;
        (!i, !v))
      (0, 0) (stores t)
  in
  [
    ("chain_max_ever", float_of_int (max_versions_ever t));
    ("chain_max_now", float_of_int live_chain_max);
    ( "chain_mean_now",
      if total_items = 0 then 0.0
      else float_of_int total_versions /. float_of_int total_items );
  ]
  @ Common.lock_stats t.locking

let metrics_snapshot _ = None

(* No secondary index in this baseline: the driver's scan/join streams
   count as failed queries here. *)
let submit_scan _ ~root:_ ~range:_ = None
let submit_join _ ~root:_ ~build:_ ~probe:_ = None
