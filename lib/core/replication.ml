open Cluster_state

let recover_from_log cs ~site log =
  let pending = Wal.Recovery.pending () in
  let store, versions =
    Wal.Recovery.replay log
      ?bound:(Config.store_bound cs.config)
      ~gc_renumber:cs.config.Config.gc_renumber ~pending ()
  in
  let nd =
    Node_state.create_recovered ~engine:cs.engine ~node_id:site
      ~config:cs.config ~lock_group:cs.lock_group ~metrics:cs.metrics ~log
      ~pending ~store ~u:versions.Wal.Recovery.update_version
      ~q:versions.Wal.Recovery.query_version
      ~g:versions.Wal.Recovery.collected_version ()
  in
  attach_index_if_configured cs nd;
  cs.nodes.(site) <- nd;
  versions

let fresh_node cs ~site =
  let nd =
    Node_state.create ~engine:cs.engine ~node_id:site ~config:cs.config
      ~lock_group:cs.lock_group ~metrics:cs.metrics ()
  in
  attach_index_if_configured cs nd;
  nd

(* ---- Backup side: append shipped records and apply them incrementally
   with {!Node_state.apply}, the rule a primary's own version moves and
   (through {!Wal.Recovery.redo}) crash replay share.  That one rule is
   what makes a promoted backup indistinguishable from a crash-recovered
   primary.  Every version or checkpoint record wakes the waiters on
   cluster-wide version agreement, whether or not a number moved. *)

let apply_record cs nd r =
  ignore (Node_state.apply nd r : bool);
  match r with
  | Wal.Record.Advance_update _ | Wal.Record.Advance_query _
  | Wal.Record.Collect _ | Wal.Record.Checkpoint _ ->
      note_version_change cs
  | Wal.Record.Begin _ | Wal.Record.Update _ | Wal.Record.Commit _
  | Wal.Record.Rollback _ | Wal.Record.Abort _ ->
      ()

let send_ack cs b =
  let nd = node cs b.b_site in
  Net.Network.send cs.net ~src:b.b_site ~dst:(primary_site cs b.b_part)
    (Messages.Ship_ack
       {
         part = b.b_part;
         epoch = cs.repl.site_epoch.(b.b_site);
         upto = Wal.Log.length (Node_state.log nd);
       })

let apply_batch cs nd records =
  List.iter
    (fun r ->
      Wal.Log.append (Node_state.log nd) r;
      apply_record cs nd r)
    records;
  (* The backup's disk image is the shipped prefix itself: an ack promises
     the records survive this backup's crash, so they are durable by fiat
     (the primary already paid the force before shipping them). *)
  Wal.Log.mark_all_durable (Node_state.log nd)

(* The [Config.Replica_ack_early] mutant: acknowledge
   — and bump the visible version counters that version-pinned routing
   trusts — on receipt, then apply the data records only after a delay.
   Reads routed here during the window miss committed writes. *)
let receive_ack_early cs b nd fresh =
  List.iter
    (fun r ->
      match r with
      | Wal.Record.Advance_update _ | Wal.Record.Advance_query _ ->
          ignore (Node_state.apply nd r : bool)
      | _ -> ())
    fresh;
  note_version_change cs;
  let claimed = Wal.Log.length (Node_state.log nd) + List.length fresh in
  Net.Network.send cs.net ~src:b.b_site ~dst:(primary_site cs b.b_part)
    (Messages.Ship_ack
       { part = b.b_part; epoch = cs.repl.site_epoch.(b.b_site); upto = claimed });
  Sim.Engine.sleep 2.0;
  if Node_state.alive nd && node cs b.b_site == nd then apply_batch cs nd fresh

let receive cs b nd fresh =
  match cs.config.Config.mutant with
  | Some Replica_ack_early when fresh <> [] -> receive_ack_early cs b nd fresh
  | _ ->
      apply_batch cs nd fresh;
      send_ack cs b

let handle_ship cs site ~part ~epoch ~from_ ~records =
  let nd = node cs site in
  if Node_state.alive nd then
    match backup_at cs site with
    | None -> () (* the site's role changed while the batch was in flight *)
    | Some b ->
        if b.b_part <> part then ()
        else begin
          let se = cs.repl.site_epoch.(site) in
          if epoch > se then begin
            (* New log generation (checkpoint truncation or failover).
               Only a from-zero batch can carry us across; a mid-epoch
               batch is useless without its prefix and is dropped (repair
               re-ships from zero).  Whatever this replica holds from the
               old generation need not be a prefix of the new log —
               promotion keeps only the longest in-sync copy, so records
               applied here may exist nowhere in the surviving history.
               A store built from them cannot be patched record-by-record;
               start the replica over from nothing. *)
            if from_ = 0 then begin
              cs.nodes.(site) <- fresh_node cs ~site;
              cs.repl.site_epoch.(site) <- epoch;
              receive cs b (node cs site) records
            end
          end
          else if epoch = se then begin
            let len = Wal.Log.length (Node_state.log nd) in
            if from_ <= len then
              receive cs b nd
                (List.filteri (fun i _ -> i >= len - from_) records)
            else
              (* Gap: an earlier batch was lost.  Re-advertise real
                 progress so the primary's repair rewinds sooner. *)
              send_ack cs b
          end
          (* epoch < se: a straggler from a discarded generation — drop. *)
        end

(* ---- Primary side: shipping. *)

(* Loss repair: if the backup has not acknowledged up to what was shipped
   for a whole catch-up-timeout since the last ship, assume the envelopes
   died (partition, crash in flight) and rewind the cursor to the acked
   mark so the gap goes out again. *)
let maybe_repair cs b =
  if
    Wal.Ship.acked b.b_cursor < Wal.Ship.sent b.b_cursor
    && now cs -. Wal.Ship.last_ship b.b_cursor
       >= cs.config.Config.replica_catchup_timeout
  then Wal.Ship.rewind b.b_cursor ~upto:(Wal.Ship.acked b.b_cursor)

let flush cs p =
  let psite = primary_site cs p in
  let pnode = node cs psite in
  if Node_state.alive pnode then begin
    let log = Node_state.log pnode in
    let horizon =
      Wal.Ship.shippable log
        ~durability_active:(Config.durability_active cs.config)
    in
    let epoch = cs.repl.ship_epoch.(p) in
    Array.iter
      (fun b ->
        if Node_state.alive (node cs b.b_site) then begin
          maybe_repair cs b;
          let from_ = Wal.Ship.sent b.b_cursor in
          if from_ < horizon then begin
            let records = Wal.Log.slice log ~from_ ~upto:horizon in
            Net.Network.send cs.net ~src:psite ~dst:b.b_site
              (Messages.Ship { part = p; epoch; from_; records });
            Wal.Ship.note_ship b.b_cursor ~upto:horizon ~at:(now cs)
          end
        end)
      (backups cs p)
  end

(* Event-driven shipping: commits, advancement phases and GC poke their
   partition after appending (and forcing) records — there is no daemon,
   so a quiescent cluster stays quiescent and [Engine.run] terminates. *)
let poke cs p = if Array.length (backups cs p) > 0 then flush cs p

let maybe_resync cs p b =
  if not b.b_insync then begin
    let pnode = node cs (primary_site cs p) in
    let horizon =
      Wal.Ship.shippable (Node_state.log pnode)
        ~durability_active:(Config.durability_active cs.config)
    in
    if Wal.Ship.acked b.b_cursor >= horizon then begin
      b.b_insync <- true;
      note cs (Sim.Event.Backup_in_sync { part = p; site = b.b_site })
    end
  end

let handle_ship_ack cs site ~src ~part ~epoch ~upto =
  if
    is_primary_site cs site
    && part_of_site cs site = part
    && epoch = cs.repl.ship_epoch.(part)
  then
    Array.iter
      (fun b ->
        if b.b_site = src && upto <= Wal.Ship.sent b.b_cursor then begin
          let before = Wal.Ship.acked b.b_cursor in
          Wal.Ship.note_ack b.b_cursor ~upto;
          (* A no-progress ack while shipped records are outstanding is
             the backup's gap report: a batch died on the wire (it
             re-advertises its real log length on every unusable ship).
             Rewind to the acknowledged mark and re-ship right away —
             waiting for the quiet-period repair would lose the race
             against steady traffic, which refreshes [last_ship] on every
             flush and so keeps the timeout from ever expiring. *)
          if upto <= before && before < Wal.Ship.sent b.b_cursor then begin
            Wal.Ship.rewind b.b_cursor ~upto:(Wal.Ship.acked b.b_cursor);
            flush cs part
          end;
          maybe_resync cs part b;
          note_repl_change cs part
        end)
      (backups cs part)

(* ---- Catch-up gates. *)

let demote cs b ~why =
  if b.b_insync then begin
    b.b_insync <- false;
    note cs
      (Sim.Event.Backup_demoted { part = b.b_part; site = b.b_site; why });
    note_repl_change cs b.b_part;
    (* Waiters on cluster-wide version agreement no longer count this
       backup; wake them so they re-evaluate. *)
    note_version_change cs
  end

(* Wait until every live in-sync backup of [p] has acknowledged the
   primary-log prefix [tip]; a backup still lagging when the catch-up
   timeout expires is demoted instead of stalling the caller (partition
   tolerance).  Dead backups never gate — the all-dead partition degrades
   to single-copy operation.  The wait parks on [p]'s own condition, so
   only [p]'s acks, demotions and promotions wake it, plus the one event
   each wait schedules to broadcast that condition at its deadline (any
   other gate of [p] parked then re-checks and parks again).  [valid] is
   re-checked at every wake-up: if the gating primary crashed (and was
   perhaps replaced by promotion, which resets the survivors' cursors),
   the wait is moot and must bail out without demoting — the laggards it
   would see belong to the successor now. *)
let await_catchup cs p ~tip ~valid =
  let lags b =
    b.b_insync
    && Node_state.alive (node cs b.b_site)
    && Wal.Ship.acked b.b_cursor < tip
  in
  let lagging () = Array.exists lags (backups cs p) in
  flush cs p;
  if lagging () then begin
    let timeout = cs.config.Config.replica_catchup_timeout in
    let deadline = now cs +. timeout in
    let changed = cs.repl.repl_changed.(p) in
    Sim.Engine.schedule cs.engine ~delay:timeout (fun () ->
        Sim.Condition.broadcast changed);
    let rec wait () =
      if valid () && lagging () then
        if now cs >= deadline then
          Array.iter
            (fun b -> if lags b then demote cs b ~why:"catch-up timeout")
            (backups cs p)
        else begin
          Sim.Condition.await changed;
          wait ()
        end
    in
    wait ()
  end

let gate cs nd =
  let s = Node_state.id nd in
  if Node_state.alive nd && is_primary_site cs s then begin
    let p = part_of_site cs s in
    if Array.length (backups cs p) > 0 then begin
      let tip =
        Wal.Ship.shippable (Node_state.log nd)
          ~durability_active:(Config.durability_active cs.config)
      in
      let valid () =
        Node_state.alive nd && is_primary_site cs s && node cs s == nd
      in
      await_catchup cs p ~tip ~valid
    end
  end

(* Outcome of a commit whose primary died while the commit gate waited.
   The commit record is durable on the dead node's disk; whether the
   acknowledgment may still escape depends on where the partition's
   authority went.  No failover: the node is still the primary and will
   recover with its own log — the record survives.  Failover: only the
   promoted successor's log counts, because the deposed primary rejoins
   empty (its unshipped records are discarded), so a record absent there
   is gone for good. *)
let commit_fate cs nd ~txn =
  let s = Node_state.id nd in
  let cur = primary_site cs (part_of_site cs s) in
  if cur = s then `Own_log
  else
    let nd' = node cs cur in
    let has =
      List.exists
        (function
          | Wal.Record.Commit { txn = t'; _ } -> t' = txn
          | _ -> false)
        (Wal.Log.records (Node_state.log nd'))
    in
    if has then `Successor nd' else `Lost

(* After Phase 3 appended the Collect record at a primary with backups,
   force it and ship it so the backups' garbage versions converge (a query
   never reads near g, so this is pure convergence, not a barrier). *)
let after_gc cs site =
  let part = part_of_site cs site in
  if is_primary_site cs site && Array.length (backups cs part) > 0 then
    match Node_state.commit_durable (node cs site) with
    | () -> poke cs part
    | exception Wal.Group_commit.Crashed -> ()

(* ---- Version-pinned read routing. *)

(* A backup may serve a read pinned at [pin] once its applied query
   version has reached [pin].  The primary logs [Advance_query pin] only
   after every update at version [pin] or below has finished, so every
   commit with final_version <= pin precedes that record in its log; a
   backup applies the log in order, so applied q >= pin means its
   snapshot at [pin] is complete.  Routing round-robins over the primary
   and the eligible backups; the counters stay wherever the read actually
   runs, and the root's own pin (taken at the root partition's primary)
   is what holds garbage collection off globally. *)
let route_read cs ~src ~part ~pin =
  let psite = primary_site cs part in
  let bs = backups cs part in
  if Array.length bs = 0 then psite
  else begin
    let eligible b =
      b.b_insync
      && Node_state.alive (node cs b.b_site)
      && Node_state.q (node cs b.b_site) >= pin
      && not (Net.Network.link_is_down cs.net ~src ~dst:b.b_site)
      && not (Net.Network.link_is_down cs.net ~src:b.b_site ~dst:src)
    in
    let cands =
      psite
      :: (Array.to_list bs
         |> List.filter eligible
         |> List.map (fun b -> b.b_site))
    in
    match cands with
    | [ only ] -> only
    | _ ->
        let k = List.length cands in
        let site = List.nth cands (cs.repl.rr mod k) in
        cs.repl.rr <- cs.repl.rr + 1;
        if site <> psite then note cs (Sim.Event.Backup_read { part; site });
        site
  end

(* ---- Failover. *)

(* Promotion: WAL-replay recovery of the chosen backup's own log, exactly
   the path a crashed primary takes — counters restart at zero, in-flight
   subtransactions die and are rejected, the store is rebuilt from the
   log.  Candidate: the live in-sync backup with the longest log (it holds
   every record any in-sync backup acknowledged, so no gate-acknowledged
   commit is lost); ties break to the lowest site id. *)
let promote cs ~part ~old_site =
  let cands =
    Array.to_list (backups cs part)
    |> List.filter (fun b ->
           b.b_insync && Node_state.alive (node cs b.b_site))
  in
  match cands with
  | [] -> None
  | first :: rest ->
      let len b = Wal.Log.length (Node_state.log (node cs b.b_site)) in
      let best =
        List.fold_left
          (fun a b ->
            if len b > len a || (len b = len a && b.b_site < a.b_site) then b
            else a)
          first rest
      in
      let new_site = best.b_site in
      let versions =
        recover_from_log cs ~site:new_site (Node_state.log (node cs new_site))
      in
      cs.repl.primary_of.(part) <- new_site;
      cs.repl.backups_of.(part) <-
        Array.of_list
          (List.filter
             (fun b -> b.b_site <> new_site)
             (Array.to_list (backups cs part)));
      (* The promoted log shares a prefix with, but then diverges from,
         every copy the old epoch produced — a crashed backup or demoted
         straggler may even hold records the new primary never had.
         Splicing by record index would silently skip the new history, so
         failover starts a fresh epoch (exactly like a checkpoint
         truncation): stale copies become unmistakable and every backup
         rebuilds from the from-zero re-ship instead. *)
      let e = cs.repl.ship_epoch.(part) + 1 in
      cs.repl.ship_epoch.(part) <- e;
      cs.repl.site_epoch.(new_site) <- e;
      (* The cursors were the dead primary's view; start over from zero. *)
      Array.iter (fun b -> Wal.Ship.reset b.b_cursor) (backups cs part);
      note cs
        (Sim.Event.Promoted
           {
             part;
             site = new_site;
             was = old_site;
             u = versions.Wal.Recovery.update_version;
             q = versions.Wal.Recovery.query_version;
             g = versions.Wal.Recovery.collected_version;
           });
      note_version_change cs;
      note_repl_change cs part;
      poke cs part;
      Some new_site

(* Crash hook, run by [Cluster.crash] after the node is killed and marked
   down.  A crashed backup just leaves the read set; a crashed primary
   triggers promotion (or degrades the partition to "down until recovery"
   when no backup can serve).  Returns the promoted successor. *)
let on_crash cs ~site =
  match backup_at cs site with
  | Some b ->
      demote cs b ~why:"crashed";
      None
  | None when is_primary_site cs site ->
      let part = part_of_site cs site in
      let successor = promote cs ~part ~old_site:site in
      if successor = None then note cs (Sim.Event.No_backup { part; site });
      successor
  | None -> None

(* Recovery hook for a site that is not (or no longer) its partition's
   primary.  A crashed backup rebuilds from its own log — every record it
   ever held was acknowledged, hence durable by fiat, so nothing is lost —
   and re-earns in-sync status through catch-up.  A deposed primary may
   hold durable records that were never shipped and exist in no current
   log; its state is unsalvageable, so it rejoins empty and full-resyncs
   (epoch -1 forces adoption of the first from-zero ship). *)
let recover_as_backup cs ~site =
  let old = node cs site in
  if Node_state.alive old then
    invalid_arg "Replication.recover_as_backup: node is not down";
  let part = part_of_site cs site in
  (match backup_at cs site with
  | Some b when cs.repl.site_epoch.(site) = cs.repl.ship_epoch.(part) ->
      (* Same generation: the current primary shipped every record this
         log holds, so it is a prefix of that primary's log and safe to
         rebuild from directly.  Replay leaves the writes of transactions
         whose [Commit] has not arrived yet in the node's redo buffer. *)
      let log = Node_state.log old in
      ignore (recover_from_log cs ~site log : Wal.Recovery.versions);
      b.b_insync <- false;
      Wal.Ship.rewind b.b_cursor ~upto:(Wal.Log.length log)
  | Some b ->
      (* The partition failed over (or checkpointed) while this backup was
         down: its log belongs to a dead generation and may hold records
         that exist nowhere in the surviving history.  Replaying them would
         fork the replica, so rejoin empty and adopt the next from-zero
         ship. *)
      cs.nodes.(site) <- fresh_node cs ~site;
      b.b_insync <- false;
      cs.repl.site_epoch.(site) <- -1;
      Wal.Ship.reset b.b_cursor
  | None ->
      cs.nodes.(site) <- fresh_node cs ~site;
      cs.repl.site_epoch.(site) <- -1;
      cs.repl.backups_of.(part) <-
        Array.append cs.repl.backups_of.(part)
          [|
            {
              b_part = part;
              b_site = site;
              b_cursor = Wal.Ship.create ();
              b_insync = false;
            };
          |]);
  Net.Network.set_down cs.net ~node:site false;
  note cs (Sim.Event.Rejoined { part; site });
  note_version_change cs;
  poke cs part

(* A quiescent checkpoint truncated the primary's log: its record indexes
   restart, so the partition moves to a fresh epoch and every backup gets
   a full resync from the (self-contained) post-checkpoint log. *)
let on_checkpoint cs ~site =
  let p = part_of_site cs site in
  if is_primary_site cs site && Array.length (backups cs p) > 0 then begin
    cs.repl.ship_epoch.(p) <- cs.repl.ship_epoch.(p) + 1;
    cs.repl.site_epoch.(site) <- cs.repl.ship_epoch.(p);
    Array.iter (fun b -> Wal.Ship.reset b.b_cursor) (backups cs p);
    poke cs p
  end
