type 'v t = 'v Cluster_state.t

let create ~engine ?(config = Config.default) ?latency ?index ~nodes () =
  Config.validate config;
  let cs =
    Cluster_state.create ~engine ~config ~nodes ?latency ?index_extract:index
      ()
  in
  Advancement.install cs;
  cs

let engine (cs : _ t) = cs.Cluster_state.engine
let config (cs : _ t) = cs.Cluster_state.config
let node_count = Cluster_state.node_count
let partitions = Cluster_state.nparts
let node = Cluster_state.node
let network (cs : _ t) = cs.Cluster_state.net
let state cs = cs

let load cs ~node:i items =
  let i = Cluster_state.home_site cs i in
  let txn = Node_state.fresh_txn_id (Cluster_state.node cs i) in
  let preload nd =
    let store = Node_state.store nd in
    (* Write through both the store and the log (as a synthetic committed
       bootstrap transaction), so crash recovery can rebuild the preload.
       Backups append the same records under the same transaction id, so
       every copy's log holds an identical prefix. *)
    let log = Node_state.log nd in
    Wal.Log.append log (Wal.Record.Begin { txn; version = 0 });
    List.iter
      (fun (key, value) ->
        Vstore.Store.write store key 0 value;
        Wal.Log.append log (Wal.Record.Update { txn; key; value = Some value }))
      items;
    Wal.Log.append log (Wal.Record.Commit { txn; final_version = 0 });
    (* The preload is the node's initial disk image — durable by fiat, not
       subject to the group-commit window. *)
    Wal.Log.mark_all_durable log
  in
  preload (Cluster_state.node cs i);
  (* Backups start from the same disk image (loading predates the run;
     shipping it would race the first pinned reads).  Their cursors settle
     at the primary's log length: the prefix is already in place. *)
  if Cluster_state.replicated cs then begin
    let part = Cluster_state.part_of_site cs i in
    let len =
      Wal.Log.length (Node_state.log (Cluster_state.node cs i))
    in
    Array.iter
      (fun b ->
        preload (Cluster_state.node cs b.Cluster_state.b_site);
        Wal.Ship.note_ship b.Cluster_state.b_cursor ~upto:len
          ~at:(Cluster_state.now cs);
        Wal.Ship.note_ack b.Cluster_state.b_cursor ~upto:len)
      (Cluster_state.backups cs part)
  end

let run_query cs ~root ~reads = Query_exec.run cs ~root ~reads
let run_update cs ~root ~ops = Update_exec.run cs ~root ~ops
let run_scan cs ~root ~ranges = Query_exec.run_scan cs ~root ~ranges

let run_select cs ~root ~plan ~ranges =
  Query_exec.run_select cs ~root ~plan ~ranges

let run_join cs ~root ~plan ~build ~probe =
  Query_exec.run_join cs ~root ~plan ~build ~probe
let run_tree_update cs ~plan = Tree_txn.run cs ~plan
let run_tree_query cs ~plan = Tree_query.run cs ~plan

let advance cs ~coordinator = Advancement.initiate cs ~coordinator
let advancement_in_progress cs = Advancement.in_progress cs

let advance_and_wait cs ~coordinator =
  match Advancement.initiate cs ~coordinator with
  | `Busy -> `Busy
  | `Started newu ->
      Advancement.await_completion cs ~newu;
      `Completed newu

let start_periodic_advancement cs ~coordinator ~period ~until =
  let rec loop () =
    Sim.Engine.sleep period;
    if Sim.Engine.now cs.Cluster_state.engine <= until then begin
      ignore (Advancement.initiate cs ~coordinator : [ `Started of int | `Busy ]);
      loop ()
    end
  in
  Sim.Engine.spawn cs.Cluster_state.engine ~name:"periodic-advancement" loop

(* §8 limiting mode: run advancements back to back — initiate, wait until
   the new version is readable everywhere, immediately initiate again.
   Pairs naturally with [Config.overlap_gc], which lets a round start while
   the previous round's garbage collection is still draining. *)
let start_continuous_advancement cs ~coordinator ~until =
  let rec loop () =
    if Sim.Engine.now cs.Cluster_state.engine < until then begin
      (match Advancement.initiate cs ~coordinator with
      | `Started newu -> Advancement.await_published cs ~newu
      | `Busy -> Sim.Engine.sleep 1.0);
      loop ()
    end
  in
  Sim.Engine.spawn cs.Cluster_state.engine ~name:"continuous-advancement" loop

let checkpoint cs ~node:i =
  let i = Cluster_state.home_site cs i in
  (* Backups never truncate their own log: it must stay a prefix of the
     primary's.  They shed log by adopting the primary's post-checkpoint
     epoch instead (see {!Replication.on_checkpoint}). *)
  if Cluster_state.replicated cs && not (Cluster_state.is_primary_site cs i)
  then false
  else begin
    let nd = Cluster_state.node cs i in
    let ok = Node_state.try_checkpoint nd in
    if ok then begin
      Cluster_state.emit cs ~tag:"checkpoint"
        (Printf.sprintf "node%d: checkpoint (log reset to %d records)" i
           (Wal.Log.length (Node_state.log nd)));
      Replication.on_checkpoint cs ~site:i
    end;
    ok
  end

(* Periodic quiescent checkpoints: each beat, try to checkpoint any node
   whose log has grown past [min_log]; nodes busy with update transactions
   are skipped and caught on a later beat. *)
let start_periodic_checkpoints cs ~period ~until ?(min_log = 64) () =
  let rec loop () =
    Sim.Engine.sleep period;
    if Sim.Engine.now cs.Cluster_state.engine <= until then begin
      Array.iter
        (fun nd ->
          if
            Node_state.alive nd
            && Wal.Log.length (Node_state.log nd) >= min_log
            && ((not (Cluster_state.replicated cs))
               || Cluster_state.is_primary_site cs (Node_state.id nd))
          then
            if Node_state.try_checkpoint nd then
              Replication.on_checkpoint cs ~site:(Node_state.id nd))
        cs.Cluster_state.nodes;
      loop ()
    end
  in
  Sim.Engine.spawn cs.Cluster_state.engine ~name:"periodic-checkpoints" loop

let crash cs ~node:i =
  let nd = Cluster_state.node cs i in
  Node_state.kill nd;
  (* Coordinator round state is volatile — a crash wipes it.  Marking the
     record abandoned (besides clearing the slot) also stops its
     retransmission loop.  A stalled round left behind is re-initiated by
     any node via the §3.2 path in [Advancement.initiate]. *)
  (match cs.Cluster_state.coords.(i) with
  | Some c ->
      c.Cluster_state.c_abandoned <- true;
      cs.Cluster_state.coords.(i) <- None
  | None -> ());
  (* Relay aggregation state of hierarchical rounds is volatile too: the
     recovered node answers only frames it receives after recovery (the
     coordinator's retransmission re-delivers the current phase). *)
  cs.Cluster_state.relays.(i) <- [];
  Net.Network.set_down cs.Cluster_state.net ~node:i true;
  Cluster_state.emit cs ~tag:"crash" (Printf.sprintf "node%d: crashed" i);
  (* Replication: a crashed backup is demoted; a crashed primary triggers
     backup promotion (WAL-replay recovery of the best surviving copy). *)
  Replication.on_crash cs ~site:i

let recover cs ~node:i =
  if Cluster_state.replicated cs && not (Cluster_state.is_primary_site cs i)
  then
    (* The site is (or, if it was deposed by a failover while down, has
       become) a backup; {!Replication} owns that recovery path. *)
    Replication.recover_as_backup cs ~site:i
  else begin
  let old = Cluster_state.node cs i in
  if Node_state.alive old then invalid_arg "Cluster.recover: node is not down";
  let versions = Replication.recover_from_log cs ~site:i (Node_state.log old) in
  Net.Network.set_down cs.Cluster_state.net ~node:i false;
  Cluster_state.emit cs ~tag:"crash"
    (Printf.sprintf "node%d: recovered (u=%d q=%d g=%d)" i
       versions.Wal.Recovery.update_version versions.Wal.Recovery.query_version
       versions.Wal.Recovery.collected_version);
  Cluster_state.note_version_change cs;
  (* A recovered primary resumes shipping where its durable log left off
     (everything shipped before the crash was durable, so the cursors are
     still within the log). *)
  if Cluster_state.replicated cs then
    Replication.poke cs (Cluster_state.part_of_site cs i)
  end

(* Nemesis adapter: crash/recover go through the cluster (volatile state
   wiped, WAL replayed on the way up); partitions and slow links act on the
   network alone. *)
let nemesis_target cs =
  let net = cs.Cluster_state.net in
  {
    Net.Nemesis.nodes = Cluster_state.node_count cs;
    crash = (fun n -> crash cs ~node:n);
    recover = (fun n -> recover cs ~node:n);
    partition = (fun ~src ~dst flag -> Net.Network.set_link_down net ~src ~dst flag);
    slow = (fun ~src ~dst extra -> Net.Network.set_link_extra net ~src ~dst extra);
  }

type stats = {
  commits : int;
  aborts : int;
  queries : int;
  advancements : int;
  mtf_data_access : int;
  mtf_commit_time : int;
  mtf_trivial : int;
  mtf_items_copied : int;
  commit_version_mismatches : int;
  messages : int;
  envelopes : int;
  disk_forces : int;
  records_forced : int;
  lock_waits : int;
  lock_wait_time : float;
  deadlocks : int;
  latch_acquisitions : int;
  max_versions_ever : int;
  backup_reads : int;
  replica_demotions : int;
  replica_promotions : int;
}

let metrics (cs : _ t) = cs.Cluster_state.metrics
let metrics_snapshot (cs : _ t) = Sim.Metrics.snapshot cs.Cluster_state.metrics

let stats cs =
  let sum f = Array.fold_left (fun acc nd -> acc + f nd) 0 cs.Cluster_state.nodes in
  let sumf f =
    Array.fold_left (fun acc nd -> acc +. f nd) 0.0 cs.Cluster_state.nodes
  in
  let m = cs.Cluster_state.metrics in
  {
    commits = Sim.Metrics.total_commits m;
    aborts = Sim.Metrics.total_aborts m;
    queries = Sim.Metrics.total_queries m;
    advancements = Sim.Metrics.total_advancements m;
    mtf_data_access = Sim.Metrics.total_mtf_data_access m;
    mtf_commit_time = Sim.Metrics.total_mtf_commit_time m;
    mtf_trivial = sum (fun nd -> Wal.Scheme.mtf_trivial (Node_state.scheme nd));
    mtf_items_copied =
      sum (fun nd -> Wal.Scheme.mtf_items_copied (Node_state.scheme nd));
    commit_version_mismatches = Sim.Metrics.total_version_mismatches m;
    messages = Net.Network.messages_sent cs.Cluster_state.net;
    envelopes = Net.Network.envelopes_sent cs.Cluster_state.net;
    disk_forces = Sim.Metrics.total_disk_forces m;
    records_forced = Sim.Metrics.total_records_forced m;
    lock_waits = sum (fun nd -> Lockmgr.Lock_table.waits (Node_state.locks nd));
    lock_wait_time =
      sumf (fun nd -> Lockmgr.Lock_table.total_wait_time (Node_state.locks nd));
    deadlocks =
      sum (fun nd -> Lockmgr.Lock_table.deadlocks (Node_state.locks nd));
    latch_acquisitions =
      sum (fun nd -> Lockmgr.Latch.acquisitions (Node_state.counter_latch nd));
    max_versions_ever =
      Array.fold_left
        (fun acc nd ->
          max acc (Vstore.Store.high_water_versions (Node_state.store nd)))
        0 cs.Cluster_state.nodes;
    backup_reads = Replication.backup_reads cs;
    replica_demotions = Replication.demotions cs;
    replica_promotions = Replication.promotions cs;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "commits=%d aborts=%d queries=%d advancements=%d@ mtf(data=%d commit=%d \
     trivial=%d copied=%d) mismatches=%d@ messages=%d envelopes=%d \
     forces=%d(%d recs) lock(waits=%d wait_time=%.1f deadlocks=%d) \
     latches=%d max_versions=%d repl(backup_reads=%d demotions=%d \
     promotions=%d)"
    s.commits s.aborts s.queries s.advancements s.mtf_data_access
    s.mtf_commit_time s.mtf_trivial s.mtf_items_copied
    s.commit_version_mismatches s.messages s.envelopes s.disk_forces
    s.records_forced s.lock_waits s.lock_wait_time s.deadlocks
    s.latch_acquisitions s.max_versions_ever s.backup_reads
    s.replica_demotions s.replica_promotions

let check_invariants cs = Invariant.check cs
let check_quiescent_invariants cs = Invariant.check_quiescent cs

let staleness_of_version cs ~version ~at =
  Cluster_state.staleness_of cs ~version ~at
