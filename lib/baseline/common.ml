let read_time = 0.1
let write_time = 0.2

(* Domain-local: parallel sweep workers each allocate from their own
   counter, so concurrent engine runs never contend and a run observes
   the same strictly increasing id sequence regardless of how many other
   domains are active (ids only need uniqueness within one engine). *)
let counter = Domain.DLS.new_key (fun () -> ref 0)

let fresh_txn_id () =
  let c = Domain.DLS.get counter in
  incr c;
  !c

let retry ~max_attempts ~backoff attempt =
  let rec go n =
    match attempt () with
    | `Committed -> Workload.Db_intf.Committed
    | `Aborted ->
        if n >= max_attempts then Workload.Db_intf.Aborted
        else begin
          Sim.Engine.sleep backoff;
          go (n + 1)
        end
  in
  go 1

type 's locking = {
  engine : Sim.Engine.t;
  net : unit Net.Network.t;
  stores : 's array;
  locks : Lockmgr.Lock_table.t array;
  mutable commits : int;
  mutable aborts : int;
}

let locking ~engine ~nodes store =
  let group = Lockmgr.Lock_table.new_group () in
  {
    engine;
    net = Net.Network.create ~engine ~nodes ();
    stores = Array.init nodes (fun _ -> store ());
    locks = Array.init nodes (fun _ -> Lockmgr.Lock_table.create ~group ());
    commits = 0;
    aborts = 0;
  }

exception Deadlocked

let lock l ~txn ~touched ~node ~key mode =
  Hashtbl.replace touched node ();
  match Lockmgr.Lock_table.acquire l.locks.(node) ~owner:txn ~key mode with
  | `Granted -> ()
  | `Deadlock -> raise Deadlocked

let release l ~txn touched =
  Hashtbl.iter
    (fun n () -> Lockmgr.Lock_table.release_all l.locks.(n) ~owner:txn)
    touched

(* One attempt at a read-write transaction under strict 2PL with deferred
   writes installed at commit, node by node, each node releasing its locks
   once its writes are in. *)
let attempt l ~root ~ops ~install =
  let txn = fresh_txn_id () in
  let touched = Hashtbl.create 4 in
  let buffered : (int * string, int) Hashtbl.t = Hashtbl.create 8 in
  let run_op = function
    | Workload.Db_intf.Read { node; key } ->
        Net.Network.run_at l.net ~src:root ~dst:node (fun () ->
            lock l ~txn ~touched ~node ~key Lockmgr.Lock_table.Shared;
            Sim.Engine.sleep read_time)
    | Workload.Db_intf.Write { node; key; value } ->
        Net.Network.run_at l.net ~src:root ~dst:node (fun () ->
            lock l ~txn ~touched ~node ~key Lockmgr.Lock_table.Exclusive;
            Sim.Engine.sleep write_time;
            Hashtbl.replace buffered (node, key) value)
  in
  match List.iter run_op ops with
  | () ->
      let write = install () in
      Hashtbl.iter
        (fun n () ->
          Net.Network.run_at l.net ~src:root ~dst:n (fun () ->
              Hashtbl.iter
                (fun (wn, key) value -> if wn = n then write ~node:n key value)
                buffered;
              Lockmgr.Lock_table.release_all l.locks.(n) ~owner:txn))
        touched;
      l.commits <- l.commits + 1;
      `Committed
  | exception Deadlocked ->
      release l ~txn touched;
      l.aborts <- l.aborts + 1;
      `Aborted

let update l ~root ~ops ~install =
  retry ~max_attempts:10 ~backoff:5.0 (fun () -> attempt l ~root ~ops ~install)

let lock_stats l =
  let sum f = Array.fold_left (fun acc locks -> acc +. f locks) 0.0 l.locks in
  [
    ("lock_waits", sum (fun l -> float_of_int (Lockmgr.Lock_table.waits l)));
    ("lock_wait_time", sum Lockmgr.Lock_table.total_wait_time);
    ("deadlocks", sum (fun l -> float_of_int (Lockmgr.Lock_table.deadlocks l)));
    ("commits", float_of_int l.commits);
    ("aborts", float_of_int l.aborts);
  ]
