type 'v t = {
  node_id : int;
  eng : Sim.Engine.t;
  config : Config.t;
  mutable st : 'v Vstore.Store.t;
  lk : Lockmgr.Lock_table.t;
  mutable sch : 'v Wal.Scheme.t;
  wal : 'v Wal.Log.t;
  (* {!apply}'s redo buffer: the writes of applied transactions whose
     [Commit] or [Abort] has not been applied yet.  A backup fills it from
     shipped records; after a restart it holds what replay left.  A
     primary's own transactions never pass through it. *)
  pending : 'v Wal.Recovery.pending;
  gcd : 'v Wal.Group_commit.t;
  (* Counter increments and decrements: the paper's latched counter
     updates ("using latches (no locks)").  A latch never blocks in the
     single-threaded simulation, so counting them is all it models. *)
  mutable counter_ops : int;
  mutable uv : int;
  mutable qv : int;
  mutable gv : int;
  update_counts : (int, int ref) Hashtbl.t;
  query_counts : (int, int ref) Hashtbl.t;
      (* with shared counters this is the same table as [update_counts] *)
  upd_zero : Sim.Condition.t;
  qry_zero : Sim.Condition.t;
  mutable txn_seq : int;
  mutable is_alive : bool;
  (* Secondary index over [st], when the cluster was created with one.
     [idx_extract] survives store swaps so the index can be rebuilt over
     the replacement (checkpoint apply, recovery). *)
  mutable idx : 'v Vindex.Index.t option;
  mutable idx_extract : ('v -> string) option;
}

let create_recovered ~engine ~node_id ~(config : Config.t) ?lock_group
    ?metrics ~log:wal ~pending ~store:st ~u ~q ~g () =
  let update_counts = Hashtbl.create 8 in
  (* §10: reads of a version only begin after its updates finished, so one
     counter table can serve both populations. *)
  let query_counts =
    if config.shared_transaction_counters then update_counts
    else Hashtbl.create 8
  in
  let disk = Wal.Disk.create ~force_latency:config.disk_force_latency () in
  let on_force =
    Option.map
      (fun m ~records ->
        Sim.Metrics.record m (Sim.Event.Disk_force { site = node_id; records }))
      metrics
  in
  let gcd =
    Wal.Group_commit.create ~engine ~disk ~log:wal
      ~window:config.group_commit_window ~max_batch:config.group_commit_batch
      ~ack_early:
        (match config.mutant with Some Gc_ack_early -> true | _ -> false)
      ?on_force ()
  in
  let t =
    {
      node_id;
      eng = engine;
      config;
      st;
      lk = Lockmgr.Lock_table.create ?group:lock_group ();
      sch = Wal.Scheme.create config.scheme ~store:st ~log:wal;
      wal;
      pending;
      gcd;
      counter_ops = 0;
      uv = u;
      qv = q;
      gv = g;
      update_counts;
      query_counts;
      upd_zero = Sim.Condition.create ();
      qry_zero = Sim.Condition.create ();
      txn_seq = 0;
      is_alive = true;
      idx = None;
      idx_extract = None;
    }
  in
  (* Counters exist for the current query and update versions. *)
  Hashtbl.replace t.update_counts u (ref 0);
  Hashtbl.replace t.query_counts q (ref 0);
  Hashtbl.replace t.query_counts u (ref 0);
  t

(* Start-up state (paper §3.1): all data at version 0, q = 0, u = 1. *)
let create ~engine ~node_id ~(config : Config.t) ?lock_group ?metrics () =
  let store =
    Vstore.Store.create ?bound:(Config.store_bound config)
      ~gc_renumber:config.gc_renumber ()
  in
  let t =
    create_recovered ~engine ~node_id ~config ?lock_group ?metrics
      ~log:(Wal.Log.create ()) ~pending:(Wal.Recovery.pending ()) ~store
      ~u:1 ~q:0 ~g:(-1) ()
  in
  Hashtbl.replace t.update_counts 0 (ref 0);
  t

let alive t = t.is_alive

(* A crash takes the volatile log tail with it — but only when the
   durability model actually costs something.  With a zero-cost disk the
   whole log is treated as synchronously durable (the pre-model semantics
   every existing experiment was built on). *)
let kill t =
  t.is_alive <- false;
  Wal.Group_commit.crash t.gcd;
  if Wal.Group_commit.active t.gcd then
    ignore (Wal.Log.drop_volatile t.wal : int)

let attach_index t ~extract =
  (match t.idx with Some ix -> Vindex.Index.detach ix | None -> ());
  t.idx_extract <- Some extract;
  t.idx <- Some (Vindex.Index.attach t.st ~extract)

let index t = t.idx

let id t = t.node_id
let store t = t.st
let locks t = t.lk
let scheme t = t.sch
let log t = t.wal
let commit_durable t = Wal.Group_commit.sync t.gcd
let u t = t.uv
let q t = t.qv
let g t = t.gv
let counter_ops t = t.counter_ops

let counter tbl version =
  match Hashtbl.find_opt tbl version with
  | Some c -> c
  | None ->
      let c = ref 0 in
      Hashtbl.replace tbl version c;
      c

let update_count t ~version =
  match Hashtbl.find_opt t.update_counts version with
  | None -> 0
  | Some c -> !c

let query_count t ~version =
  match Hashtbl.find_opt t.query_counts version with
  | None -> 0
  | Some c -> !c

let bump t c delta =
  t.counter_ops <- t.counter_ops + 1;
  c := !c + delta

let incr_update_count t ~version = bump t (counter t.update_counts version) 1

let decr_update_count t ~version =
  let c = counter t.update_counts version in
  bump t c (-1);
  if !c < 0 then invalid_arg "Node_state: update counter went negative";
  if !c = 0 then begin
    Sim.Condition.broadcast t.upd_zero;
    if t.query_counts == t.update_counts then
      Sim.Condition.broadcast t.qry_zero
  end

let incr_query_count t ~version = bump t (counter t.query_counts version) 1

let decr_query_count t ~version =
  let c = counter t.query_counts version in
  bump t c (-1);
  if !c < 0 then invalid_arg "Node_state: query counter went negative";
  if !c = 0 then begin
    Sim.Condition.broadcast t.qry_zero;
    (* With shared counters an update-side waiter may be watching the same
       slot. *)
    if t.query_counts == t.update_counts then
      Sim.Condition.broadcast t.upd_zero
  end

let await_no_updates t ~version =
  Sim.Condition.await_until t.upd_zero ~pred:(fun () ->
      update_count t ~version = 0)

let await_no_queries t ~version =
  Sim.Condition.await_until t.qry_zero ~pred:(fun () ->
      query_count t ~version = 0)

(* The one rule for how a log record changes a live node.
   {!Wal.Recovery.redo} handles the transaction records.  A version record
   moves u, q or g together with its counter slots, and a [Checkpoint]
   swaps in its restored store.  A primary reaches this through {!set_u},
   {!set_q} and {!collect_garbage}; a backup applies each shipped record,
   so a promoted backup matches a crash-recovered primary. *)
let apply t record =
  Wal.Recovery.redo t.pending t.st record;
  match record with
  | Wal.Record.Advance_update v ->
      if v <= t.uv then false
      else begin
        t.uv <- v;
        ignore (counter t.update_counts v : int ref);
        true
      end
  | Wal.Record.Advance_query v ->
      if v <= t.qv then false
      else begin
        t.qv <- v;
        ignore (counter t.query_counts v : int ref);
        true
      end
  | Wal.Record.Collect { collect; query } ->
      if collect <= t.gv then false
      else begin
        t.gv <- collect;
        Vstore.Store.gc t.st ~collect ~query;
        (* Phase 3 cleanup: the query counter for the collected version and
           the update counter for the version queries now read are both
           dead.  With the §10 shared table, the [query] slot is the LIVE
           query counter and must stay. *)
        Hashtbl.remove t.query_counts collect;
        if not (t.query_counts == t.update_counts) then
          Hashtbl.remove t.update_counts query;
        true
      end
  | Wal.Record.Checkpoint { items; u; q; g } ->
      let store =
        Vstore.Store.restore
          ?bound:(Config.store_bound t.config)
          ~gc_renumber:t.config.gc_renumber items
      in
      t.st <- store;
      t.sch <- Wal.Scheme.create (Wal.Scheme.kind t.sch) ~store ~log:t.wal;
      (* Rebuild the secondary index over the replacement store: the old one
         tracked a store that no longer serves reads. *)
      (match t.idx_extract with
      | Some extract -> attach_index t ~extract
      | None -> ());
      t.uv <- u;
      t.qv <- q;
      t.gv <- g;
      (* Same slots a freshly recovered node would have; stale slots from
         the pre-checkpoint epoch stay so in-flight reads decrement in
         balance. *)
      ignore (counter t.update_counts u : int ref);
      ignore (counter t.query_counts q : int ref);
      ignore (counter t.query_counts u : int ref);
      true
  | Wal.Record.Begin _ | Wal.Record.Update _ | Wal.Record.Commit _
  | Wal.Record.Rollback _ | Wal.Record.Abort _ ->
      false

let apply_and_log t record = if apply t record then Wal.Log.append t.wal record

let set_u t version = apply_and_log t (Wal.Record.Advance_update version)
let set_q t version = apply_and_log t (Wal.Record.Advance_query version)

let collect_garbage t ~newg =
  apply_and_log t (Wal.Record.Collect { collect = newg; query = newg + 1 })

let active_update_transactions t =
  Hashtbl.fold (fun _ c acc -> acc + !c) t.update_counts 0

(* Checkpoints are only taken at quiescent points (no active update
   transaction), so truncating the log loses no needed records.  Queries
   don't matter: they write nothing. *)
let try_checkpoint t =
  if active_update_transactions t > 0 then false
  else begin
    Wal.Recovery.checkpoint t.wal ~store:t.st ~u:t.uv ~q:t.qv ~g:t.gv;
    true
  end

let fresh_txn_id t =
  t.txn_seq <- t.txn_seq + 1;
  (* Globally unique, node-recoverable, and ordered per node. *)
  (t.txn_seq * 1024) + t.node_id
