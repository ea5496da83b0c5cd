open Cluster_state

type abort_reason =
  [ `Deadlock | `Node_down of int | `Rpc_timeout of int | `Version_mismatch ]

exception Txn_abort of abort_reason

type state = Running | Aborting | Finished

type 'v t = {
  txn_id : int;
  txn_state : state ref;
  sub_node : 'v Node_state.t;
  session : 'v Wal.Scheme.session;
  mutable counted : int;
      (* version whose updateCount slot this subtransaction occupies — its
         start version unless the §8 eager hand-off moved it *)
  mutable is_finished : bool;
  mutable is_committed : bool;
      (* commit record durable here — [is_finished] alone cannot tell a
         committed participant from an aborted one, and the session layer's
         idempotence guard needs the distinction *)
  mutable commit_submitted : bool;
      (* store changes and the Commit record are in (point of no return
         locally) but the durability force may still be pending: the window
         in which a coordinator that timed out must wait, not rerun *)
  mutable commit_finalized : bool;
      (* the post-force bookkeeping (counter hand-back, lock release,
         replication settle) ran; duplicate decision deliveries — a
         redriven commit racing the original — must not run it twice *)
  mutable committed_at : float;
      (* local time the commit finalized (locks released, writes visible)
         — the instant serializability oracles order conflicts by, stamped
         here because a coordinator that lost the ack learns of it late *)
  mutable acq_order : string list;
      (* keys in first-acquisition order, newest first; savepoints mark a
         position so rollback can release exactly the scope's fresh locks *)
}

type 'v savepoint = {
  sv_mark : 'v Wal.Scheme.savepoint;
  sv_acq : string list; (* physical tail of [acq_order] at the mark *)
}

let check_alive nd =
  if not (Node_state.alive nd) then
    raise (Txn_abort (`Node_down (Node_state.id nd)))

let check_live t =
  check_alive t.sub_node;
  match !(t.txn_state) with
  | Running -> ()
  | Aborting | Finished ->
      (* Another subtransaction of this transaction already failed; do not
         touch data on behalf of a dead transaction. *)
      raise (Txn_abort `Deadlock)

let start cs ~txn_id ~state ~node:nd ~carried =
  check_alive nd;
  if cs.config.Config.piggyback_version then raise_u cs nd carried;
  (* §3.4 step 1, atomic: version lookup and counter increment. *)
  let v = Node_state.u nd in
  let session =
    Wal.Scheme.begin_session (Node_state.scheme nd) ~txn:txn_id ~version:v
  in
  Node_state.incr_update_count nd ~version:v;
  note cs
    (Sim.Event.Sub_start
       { txn = txn_id; site = Node_state.id nd; version = v });
  {
    txn_id;
    txn_state = state;
    sub_node = nd;
    session;
    counted = v;
    is_finished = false;
    is_committed = false;
    commit_submitted = false;
    commit_finalized = false;
    committed_at = nan;
    acq_order = [];
  }

let node t = t.sub_node
let version t = Wal.Scheme.version t.session
let finished t = t.is_finished
let committed t = t.is_committed
let commit_submitted t = t.commit_submitted
let committed_at t = t.committed_at

(* moveToFuture plus the bookkeeping around it.  In the baseline
   synchronous-advancement mode there is no moveToFuture: a transaction
   that would need one is aborted instead. *)
let move_to cs t ~newv ~at_commit =
  if newv > version t then begin
    if cs.config.Config.abort_on_version_mismatch then
      raise (Txn_abort `Version_mismatch);
    let copied =
      Wal.Scheme.move_to_future (Node_state.scheme t.sub_node) t.session
        ~new_version:newv
    in
    let site = Node_state.id t.sub_node in
    note cs
      (Sim.Event.Mtf
         { txn = t.txn_id; site; version = newv; at_commit; copied });
    if cs.config.Config.eager_counter_handoff then begin
      (* §8: appear to have "started" in the advanced version so Phase 1
         need not wait for us. *)
      Node_state.decr_update_count t.sub_node ~version:t.counted;
      Node_state.incr_update_count t.sub_node ~version:newv;
      t.counted <- newv
    end
  end

let lock cs t key mode =
  ignore cs;
  check_live t;
  let fresh =
    Lockmgr.Lock_table.holds (Node_state.locks t.sub_node) ~owner:t.txn_id ~key
    = None
  in
  match
    Lockmgr.Lock_table.acquire (Node_state.locks t.sub_node) ~owner:t.txn_id
      ~key mode
  with
  | `Granted -> (
      (* The wait may have outlived the transaction (a sibling aborted us
         while we were queued); the abort already released our locks, so
         this fresh grant must not leak. *)
      match !(t.txn_state) with
      | Running -> if fresh then t.acq_order <- key :: t.acq_order
      | Aborting | Finished ->
          Lockmgr.Lock_table.release_all (Node_state.locks t.sub_node)
            ~owner:t.txn_id;
          raise (Txn_abort `Deadlock))
  | `Deadlock -> raise (Txn_abort `Deadlock)

(* Encountering a later version of a locked item means a conflicting
   transaction of the next version already committed; serialize after it by
   moving to the node's current update version (§3.4 steps 2-3). *)
let catch_up cs t key =
  match Vstore.Store.max_version (Node_state.store t.sub_node) key with
  | Some cur when cur > version t ->
      move_to cs t ~newv:(Node_state.u t.sub_node) ~at_commit:false
  | _ -> ()

let read_current t key =
  let scheme = Node_state.scheme t.sub_node in
  match Wal.Scheme.read_own scheme t.session key with
  | Some own -> own
  | None -> Vstore.Store.read_le (Node_state.store t.sub_node) key (version t)

let read cs t key =
  lock cs t key Lockmgr.Lock_table.Shared;
  Sim.Engine.sleep cs.config.Config.read_service_time;
  match Wal.Scheme.read_own (Node_state.scheme t.sub_node) t.session key with
  | Some own -> own
  | None ->
      catch_up cs t key;
      Vstore.Store.read_le (Node_state.store t.sub_node) key (version t)

let write_value cs t key value =
  lock cs t key Lockmgr.Lock_table.Exclusive;
  Sim.Engine.sleep cs.config.Config.write_service_time;
  catch_up cs t key;
  Wal.Scheme.write (Node_state.scheme t.sub_node) t.session key value

let write cs t key value = write_value cs t key (Some value)
let delete cs t key = write_value cs t key None

let read_modify_write cs t key f =
  lock cs t key Lockmgr.Lock_table.Exclusive;
  Sim.Engine.sleep cs.config.Config.read_service_time;
  catch_up cs t key;
  let current = read_current t key in
  Sim.Engine.sleep cs.config.Config.write_service_time;
  Wal.Scheme.write (Node_state.scheme t.sub_node) t.session key (Some (f current))

let savepoint cs t =
  ignore cs;
  check_live t;
  {
    sv_mark = Wal.Scheme.savepoint (Node_state.scheme t.sub_node) t.session;
    sv_acq = t.acq_order;
  }

(* Keys first acquired since the mark: [acq_order] grows by consing, so the
   mark's list is a physical tail of the current one. *)
let scope_keys t sp =
  let rec collect acc l =
    if l == sp.sv_acq then acc
    else match l with [] -> acc | key :: tl -> collect (key :: acc) tl
  in
  collect [] t.acq_order

let rollback_to cs t sp =
  check_live t;
  Wal.Scheme.rollback_to (Node_state.scheme t.sub_node) t.session sp.sv_mark;
  (* Locks first acquired inside the rolled-back scope are released so the
     items become re-acquirable (pre-scope locks — including those upgraded
     inside the scope — are conservatively kept: a pre-scope read stays
     protected).  The [Config.Savepoint_leak] mutant forgets this release:
     the rolled-back scope's items stay locked, manufacturing deadlocks
     the clean rollback makes impossible. *)
  (match cs.config.Config.mutant with
  | Some Savepoint_leak -> ()
  | _ ->
      List.iter
        (fun key ->
          Lockmgr.Lock_table.release_one (Node_state.locks t.sub_node)
            ~owner:t.txn_id ~key)
        (scope_keys t sp));
  t.acq_order <- sp.sv_acq;
  note cs
    (Sim.Event.Sub_rollback { txn = t.txn_id; site = Node_state.id t.sub_node })

let prepare cs t =
  ignore cs;
  check_live t;
  Lockmgr.Lock_table.release_shared (Node_state.locks t.sub_node)
    ~owner:t.txn_id;
  version t

(* Participants behind the global version treat the commit message as the
   signal that advancement began (§3.4 step 8), move to the future, then
   commit. *)
let commit cs t ~final_version =
  check_alive t.sub_node;
  if t.is_committed then ()
  else if t.is_finished && not t.commit_submitted then
    (* A stale decision: the coordinator gave this transaction up while
       the commit message was in flight and the subtransaction has already
       rolled back (locks released, workspace gone).  Applying now would
       resurrect its writes without locks — refuse silently; the caller's
       own timeout already decided the outcome. *)
    ()
  else begin
    if not t.commit_submitted then begin
      if version t < final_version then begin
        raise_u cs t.sub_node final_version;
        move_to cs t ~newv:final_version ~at_commit:true
      end;
      Wal.Scheme.commit (Node_state.scheme t.sub_node) t.session
        ~final_version;
      (* The store changes and the Commit record are in; the subtransaction
         is past the point of no return locally — [abort] must not touch it
         even if the durability wait below fails. *)
      t.commit_submitted <- true;
      t.is_finished <- true
    end;
    (* Group commit: the acknowledgement (and the lock release ordering
       conflicting transactions behind this commit) waits until the Commit
       record is forced.  If the node crashes first, the record may be lost
       with the crash and no ack must escape.  A duplicate delivery — a
       redriven decision racing the original — waits on the same force;
       the finalization below runs exactly once. *)
    (try Node_state.commit_durable t.sub_node
     with Wal.Group_commit.Crashed ->
       raise (Txn_abort (`Node_down (Node_state.id t.sub_node))));
    if t.commit_finalized then ()
    else begin
      t.commit_finalized <- true;
      t.is_committed <- true;
      t.committed_at <- now cs;
      Node_state.decr_update_count t.sub_node ~version:t.counted;
      Lockmgr.Lock_table.release_all (Node_state.locks t.sub_node)
        ~owner:t.txn_id;
  (* Replication: the commit acknowledgment must also cover the backups —
     wait (after releasing locks, so conflicting transactions are not
     serialized behind the ship round-trip) until every live in-sync
     backup holds this commit, demoting stragglers at the timeout.  This
     is what makes failover lossless for acknowledged commits: any backup
     still eligible for promotion has the record. *)
  let rec settle nd =
    Replication.gate cs nd;
    if not (Node_state.alive nd) then
      (* The gate yields, so the primary may have died while we waited.
         The acknowledgment may escape only if the commit survives in the
         partition's authoritative copy — the promoted successor's log,
         or the dead node's own durable log when no failover happened
         (see {!Replication.commit_fate}).  In the successor case, gate
         again there so its backups also come to hold the record before
         the ack escapes; if the record survives nowhere, no ack may
         escape, exactly as if the force had failed. *)
      match Replication.commit_fate cs nd ~txn:t.txn_id with
      | `Own_log -> ()
      | `Successor nd' -> settle nd'
      | `Lost ->
          (* Failover discarded the commit record: the write is gone for
             good, so the session layer's idempotence guard must not treat
             this participant as committed. *)
          t.is_committed <- false;
          raise (Txn_abort (`Node_down (Node_state.id nd)))
      in
      settle t.sub_node
    end
  end

let abort cs t =
  ignore cs;
  if not t.is_finished then begin
    Wal.Scheme.abort (Node_state.scheme t.sub_node) t.session;
    Node_state.decr_update_count t.sub_node ~version:t.counted;
    Lockmgr.Lock_table.release_all (Node_state.locks t.sub_node)
      ~owner:t.txn_id;
    t.is_finished <- true
  end
