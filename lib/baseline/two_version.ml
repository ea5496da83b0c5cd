type node = {
  store : (string, int) Hashtbl.t;  (** committed values *)
  locks : Lockmgr.Lock_table.t;  (** update-update conflicts only *)
  pins : (string, int ref) Hashtbl.t;  (** active query readers per item *)
  pins_zero : Sim.Condition.t;
}

type t = {
  engine : Sim.Engine.t;
  net : unit Net.Network.t;
  nodes : node array;
  mutable commits : int;
  mutable aborts : int;
  mutable queries : int;
  mutable commit_delay : float;
}

let name = "two-version"

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
            pins = Hashtbl.create 64;
            pins_zero = Sim.Condition.create ();
          });
    commits = 0;
    aborts = 0;
    queries = 0;
    commit_delay = 0.0;
  }

let load t ~node items =
  List.iter (fun (k, v) -> Hashtbl.replace t.nodes.(node).store k v) items

let node_count t = Array.length t.nodes

exception Deadlocked

let at_node t ~root ~node f =
  if node = root then f ()
  else Net.Network.call t.net ~src:root ~dst:node f

let pin nd key =
  let c =
    match Hashtbl.find_opt nd.pins key with
    | Some c -> c
    | None ->
        let c = ref 0 in
        Hashtbl.replace nd.pins key c;
        c
  in
  incr c

let unpin nd key =
  match Hashtbl.find_opt nd.pins key with
  | None -> ()
  | Some c ->
      decr c;
      if !c <= 0 then begin
        Hashtbl.remove nd.pins key;
        Sim.Condition.broadcast nd.pins_zero
      end

let await_unpinned nd key =
  Sim.Condition.await_until nd.pins_zero ~pred:(fun () ->
      not (Hashtbl.mem nd.pins key))

let attempt_update t ~root ~ops =
  let txn = Common.fresh_txn_id () in
  let touched = Hashtbl.create 4 in
  let buffered : (int * string, int) Hashtbl.t = Hashtbl.create 8 in
  let release_all () =
    Hashtbl.iter
      (fun n () -> Lockmgr.Lock_table.release_all t.nodes.(n).locks ~owner:txn)
      touched
  in
  let acquire ~node ~key mode =
    match
      Lockmgr.Lock_table.acquire t.nodes.(node).locks ~owner:txn ~key mode
    with
    | `Granted -> ()
    | `Deadlock -> raise Deadlocked
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
              | None -> Hashtbl.find_opt t.nodes.(node).store key))
    | Workload.Db_intf.Write { node; key; value } ->
        at_node t ~root ~node (fun () ->
            Hashtbl.replace touched node ();
            acquire ~node ~key Lockmgr.Lock_table.Exclusive;
            Sim.Engine.sleep Common.write_time;
            (* The before-value stays in [store]; the new value is the
               second, uncommitted version. *)
            Hashtbl.replace buffered (node, key) value)
  in
  match List.iter run_op ops with
  | () ->
      (* Commit: before installing a new value, wait for queries still
         reading the before-value — the BHR80 interference. *)
      let wait_start = Sim.Engine.now t.engine in
      Hashtbl.iter
        (fun n () ->
          at_node t ~root ~node:n (fun () ->
              Hashtbl.iter
                (fun (wn, key) value ->
                  if wn = n then begin
                    await_unpinned t.nodes.(n) key;
                    Hashtbl.replace t.nodes.(n).store key value
                  end)
                buffered;
              Lockmgr.Lock_table.release_all t.nodes.(n).locks ~owner:txn))
        touched;
      t.commit_delay <- t.commit_delay +. (Sim.Engine.now t.engine -. wait_start);
      t.commits <- t.commits + 1;
      `Committed
  | exception Deadlocked ->
      release_all ();
      t.aborts <- t.aborts + 1;
      `Aborted

let submit_update t ~root ~ops =
  Common.retry ~max_attempts:10 ~backoff:5.0 (fun () ->
      attempt_update t ~root ~ops)

(* Queries take no locks: they read committed values and pin what they read
   until they finish, delaying conflicting writer commits. *)
let submit_query t ~root ~reads =
  let t0 = Sim.Engine.now t.engine in
  let pinned = ref [] in
  let read_one (node, key) =
    at_node t ~root ~node (fun () ->
        pin t.nodes.(node) key;
        pinned := (node, key) :: !pinned;
        Sim.Engine.sleep Common.read_time;
        ignore (Hashtbl.find_opt t.nodes.(node).store key))
  in
  List.iter read_one reads;
  List.iter (fun (node, key) -> unpin t.nodes.(node) key) !pinned;
  t.queries <- t.queries + 1;
  Some
    {
      Workload.Db_intf.q_latency = Sim.Engine.now t.engine -. t0;
      q_staleness = Some 0.0;
    }


let max_versions_ever _ = 2

let extra_stats t =
  let sum f = Array.fold_left (fun acc nd -> acc +. f nd.locks) 0.0 t.nodes in
  [
    ("commit_delay", t.commit_delay);
    ("lock_waits", sum (fun l -> float_of_int (Lockmgr.Lock_table.waits l)));
    ("deadlocks", sum (fun l -> float_of_int (Lockmgr.Lock_table.deadlocks l)));
    ("commits", float_of_int t.commits);
    ("aborts", float_of_int t.aborts);
  ]

let metrics_snapshot _ = None

(* No secondary index in this baseline: the driver's scan/join streams
   count as failed queries here. *)
let submit_scan _ ~root:_ ~range:_ = None
let submit_join _ ~root:_ ~build:_ ~probe:_ = None
