type t = (string, int) Hashtbl.t Common.locking

let name = "s2pl"

let create ~engine ~nodes () =
  Common.locking ~engine ~nodes (fun () -> Hashtbl.create 256)

let load (t : t) ~node items =
  List.iter (fun (k, v) -> Hashtbl.replace t.stores.(node) k v) items

let node_count (t : t) = Array.length t.stores

(* Writes overwrite the single committed value in place. *)
let submit_update (t : t) ~root ~ops =
  Common.update t ~root ~ops ~install:(fun () ~node key value ->
      Hashtbl.replace t.stores.(node) key value)

(* Queries are plain transactions that take shared locks — the source of
   the interference this baseline exists to exhibit. *)
let submit_query (t : t) ~root ~reads =
  let txn = Common.fresh_txn_id () in
  let touched = Hashtbl.create 4 in
  let t0 = Sim.Engine.now t.engine in
  let read_one (node, key) =
    Net.Network.run_at t.net ~src:root ~dst:node (fun () ->
        Common.lock t ~txn ~touched ~node ~key Lockmgr.Lock_table.Shared;
        Sim.Engine.sleep Common.read_time;
        ignore (Hashtbl.find_opt t.stores.(node) key))
  in
  match List.iter read_one reads with
  | () ->
      Common.release t ~txn touched;
      Some
        {
          Workload.Db_intf.q_latency = Sim.Engine.now t.engine -. t0;
          q_staleness = Some 0.0;
        }
  | exception Common.Deadlocked ->
      Common.release t ~txn touched;
      (* A deadlocked query retries once from scratch. *)
      None

let max_versions_ever _ = 1
let extra_stats = Common.lock_stats
let metrics_snapshot _ = None

(* No secondary index in this baseline: the driver's scan/join streams
   count as failed queries here. *)
let submit_scan _ ~root:_ ~range:_ = None
let submit_join _ ~root:_ ~build:_ ~probe:_ = None
