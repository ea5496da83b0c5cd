open Cluster_state

(* Acknowledge a phase's local share once that is safe.  The ack is a
   durability promise — the coordinator may treat the version switch as
   done — so the Advance record behind it is forced first (free when the
   durability model is off); otherwise a crash after the ack would revert
   the node's version below what the coordinator saw.  The barrier then
   extends to in-sync backups, stragglers being demoted rather than
   allowed to stall the round.  Phase 1: they must hold the Advance_update
   record, so no two in-sync copies ever disagree on both counters and a
   backup promoted after this ack starts at the new update version.
   Phase 2: they must hold the log up to and including the Advance_query
   record, since the coordinator takes this ack as licence to retire
   version newq - 1, which their pinned readers may still need.  A crash
   during the force or the gate withholds the ack; retransmission covers
   the recovered node or the successor.  [complete] is the ack itself: a
   plain message back to the sender of a plain phase message, a
   contribution to the local relay aggregation everywhere else. *)
let acknowledge cs i nd ~complete =
  match Node_state.commit_durable nd with
  | exception Wal.Group_commit.Crashed -> ()
  | () ->
      Replication.gate cs (node cs i);
      if Node_state.alive nd then complete ()

let advance_u_local cs i ~newu ~complete =
  let nd = node cs i in
  if Node_state.u nd <= newu then begin
    (* Also the Phase-1 inference rule: a node seeing advance-u(newu) with
       g < newu - 3 may collect everything up to newu - 3. *)
    let raised = Node_state.u nd < newu in
    raise_u cs nd newu;
    if raised then note cs (Sim.Event.Set_u { site = i; u = newu });
    (* Wait for local update subtransactions that started on the previous
       version to finish, then acknowledge. *)
    Node_state.await_no_updates nd ~version:(newu - 1);
    acknowledge cs i nd ~complete
  end

let advance_q_local cs i ~newq ~complete =
  let nd = node cs i in
  if Node_state.q nd <= newq then begin
    if Node_state.q nd < newq then begin
      Node_state.set_q nd newq;
      note cs (Sim.Event.Set_q { site = i; q = newq });
      note_version_change cs
    end;
    (* Four-version baseline: the old query version survives one more round,
       so Phase 2 need not wait for queries still reading it. *)
    if not cs.config.Config.retain_extra_version then
      Node_state.await_no_queries nd ~version:(newq - 1);
    acknowledge cs i nd ~complete
  end

let handle_garbage_collect cs i ~newg =
  let nd = node cs i in
  (* Four-version baseline: collection trails one version behind, and must
     wait for the stragglers still querying the version being collected. *)
  let newg =
    if cs.config.Config.retain_extra_version then newg - 1 else newg
  in
  if Node_state.g nd < newg then begin
    if cs.config.Config.retain_extra_version then
      Node_state.await_no_queries nd ~version:newg;
    catch_up_gc cs nd ~target:newg;
    note cs (Sim.Event.Collected { site = i; g = newg });
    note_version_change cs;
    (* Ship the Collect records so backup garbage versions converge (no
       barrier — backup reads can never touch a collectable version, see
       {!Replication}). *)
    Replication.after_gc cs i
  end

let all_acked acks = Array.for_all (fun x -> x) acks

(* ---- Rounds --------------------------------------------------------------

   The coordinator sends its own site a plain phase message and hands each
   direct child of a relay tree a [Relay] frame covering that child's whole
   subtree.  Relays forward downward first, do their local share, and send
   one aggregated [Relay_ack] upward once their own work is durable and
   every participant child subtree has acknowledged.  The coordinator
   aggregates exactly like a relay at position 0: its phase ends once its
   own share is acknowledged and every child slot has settled.  With
   [tree_arity = 0] every participant is a direct child of the
   coordinator: the tree has depth one and the round is the paper's
   broadcast, one frame out and one acknowledgment back per site.  A wider
   tree cuts the coordinator's traffic to O(arity) messages per phase at
   O(log_arity N) extra depth.

   Soundness notes.  Per-link FIFO delivery plus reusing one tree for both
   phases of a round means no site can see a round's advance-q before its
   advance-u, so q < u is preserved even at fire-and-forget sites.  The
   stalled-round re-initiation rule, coordinator retransmission, and
   abandonment apply at every depth: relays are volatile, a crashed relay's
   state is rebuilt by the retransmitted frame, duplicate frames repair
   the tree idempotently (see [handle_relay]), and a promoted backup takes
   its dead primary's position (see [on_promotion]). *)

(* Arity 0 puts every site under the root. *)
let arity cs =
  match cs.config.Config.tree_arity with 0 -> node_count cs | a -> a

(* Tree layout of one round: the coordinator at the root, then the barrier
   participants, then the fire-and-forget tail.  Participants are the
   partition primaries in partition order (backups follow by log
   shipping, in exactly the order their primary's counters moved).  With
   [partition_aware] the tail holds the data-empty sites — sound only
   under the confinement contract that writes and transaction/query roots
   stay on data-hosting sites (see {!Config.t}). *)
let tree_layout cs k =
  let candidates = List.init (nparts cs) (primary_site cs) in
  let participant i =
    (not cs.config.Config.partition_aware)
    || Vstore.Store.item_count (Node_state.store (node cs i)) > 0
  in
  let parts, rest =
    List.partition participant (List.filter (fun i -> i <> k) candidates)
  in
  (Array.of_list ((k :: parts) @ rest), 1 + List.length parts)

let tree_parent cs pos = (pos - 1) / arity cs
let tree_first_child cs pos = (arity cs * pos) + 1

let relay_find cs i ~root ~ver ~kind =
  List.find_opt
    (fun r -> r.r_root = root && r.r_ver = ver && r.r_kind = kind)
    cs.relays.(i)

(* The acknowledgment state of one phase at position [pos] — the
   coordinator's at position 0, a relay's anywhere else.  Child slots at
   fire-and-forget positions can never ack and start settled. *)
let phase_state cs ~sites ~nparts ~pos kind ver =
  let first = tree_first_child cs pos in
  {
    r_root = sites.(0);
    r_ver = ver;
    r_kind = kind;
    r_sites = sites;
    r_nparts = nparts;
    r_pos = pos;
    r_child_acks =
      Array.init
        (max 0 (min (arity cs) (Array.length sites - first)))
        (fun c -> first + c >= nparts);
    r_self_done = false;
    r_acked = false;
  }

(* Settle ([true]) or reopen ([false]) the slot of the child subtree
   rooted at [site]; a site that is not a direct child has no slot. *)
let set_child_slot cs r ~site settled =
  let first = tree_first_child cs r.r_pos in
  Array.iteri
    (fun c _ ->
      if r.r_sites.(first + c) = site then r.r_child_acks.(c) <- settled)
    r.r_child_acks

(* Send [inner] on to this position's children; [skip] masks child slots
   (repair paths resend only to subtrees that have not acknowledged). *)
let relay_forward cs i ~sites ~nparts ~pos ~inner ~skip =
  let first = tree_first_child cs pos in
  for cp = first to min (Array.length sites - 1) (first + arity cs - 1) do
    if not (skip (cp - first)) then
      Net.Network.send cs.net ~src:i ~dst:sites.(cp)
        (Messages.Relay { sites; nparts; pos = cp; inner })
  done

let relay_ack_up cs i r =
  r.r_acked <- true;
  let parent = r.r_sites.(tree_parent cs r.r_pos) in
  let inner =
    match r.r_kind with
    | `U -> Messages.Ack_advance_u { newu = r.r_ver }
    | `Q -> Messages.Ack_advance_q { newq = r.r_ver }
  in
  Net.Network.send cs.net ~src:i ~dst:parent
    (Messages.Relay_ack { root = r.r_root; inner })

(* The [Config.Relay_ack_early] mutant acks without waiting for the
   subtree. *)
let relay_maybe_complete cs i r =
  if
    (not r.r_acked) && r.r_self_done
    && (match cs.config.Config.mutant with
       | Some Relay_ack_early -> true
       | _ -> all_acked r.r_child_acks)
  then relay_ack_up cs i r

(* Launch one phase of a round: the coordinator takes its own share via a
   plain self-addressed message (acknowledging itself like any participant)
   and each direct child receives the frame for its subtree.
   Fire-and-forget children (non-participant positions) get the frame too
   so their counters converge, but are never waited on. *)
let send_phase cs k c inner =
  Net.Network.send cs.net ~src:k ~dst:k inner;
  relay_forward cs k ~sites:c.c_round.r_sites ~nparts:c.c_round.r_nparts
    ~pos:0 ~inner ~skip:(fun _ -> false)

(* An acknowledgment of the coordinator's current phase: its own plain ack
   sets [r_self_done]; a direct child's ack, plain or aggregated, settles
   that child's slot.  Position 0 settled ends the phase. *)
let handle_phase_ack cs k ~src (kind, ver) =
  match cs.coords.(k) with
  | Some ({ c_round = r; _ } as c)
    when (not c.c_abandoned) && r.r_kind = kind && r.r_ver = ver ->
      if src = k then r.r_self_done <- true
      else set_child_slot cs r ~site:src true;
      if r.r_self_done && all_acked r.r_child_acks then begin
        match kind with
        | `U ->
            (* Version newu - 1 is now stable everywhere: no update
               transaction will ever write it again. *)
            let newq = ver - 1 in
            freeze_version cs newq;
            c.c_phase1_done <- now cs;
            note cs
              (Sim.Event.Phase1_done
                 { site = k; newq; duration = c.c_phase1_done -. c.c_started });
            c.c_round <-
              phase_state cs ~sites:r.r_sites ~nparts:r.r_nparts ~pos:0 `Q newq;
            send_phase cs k c (Messages.Advance_q { newq })
        | `Q ->
            cs.coords.(k) <- None;
            let newg = ver - 1 in
            note cs
              (Sim.Event.Phase2_done
                 { site = k; newg; duration = now cs -. c.c_phase1_done });
            send_phase cs k c (Messages.Garbage_collect { newg })
      end
  | _ -> ()

(* Which relay aggregation an advance phase or its acknowledgment belongs
   to; [None] for garbage collection, which aggregates nothing. *)
let phase_key = function
  | Messages.Advance_u { newu } | Messages.Ack_advance_u { newu } ->
      Some (`U, newu)
  | Messages.Advance_q { newq } | Messages.Ack_advance_q { newq } ->
      Some (`Q, newq)
  | _ -> None

(* One relay frame: forward down the tree first — a child subtree must not
   wait on this site's local share, which may suspend on the update/query
   barriers — then do the local work.  Advance phases aggregate
   acknowledgments per (root, version, kind).  A duplicate frame (the
   coordinator's retransmission) hands the state its layout — the
   sender's copy names every promoted successor — then re-forwards only
   to children that have not acknowledged, re-runs the local share, and
   re-sends the aggregate ack when that share finishes if the subtree was
   already complete (the earlier ack may have been lost with a crashed
   parent).  Garbage collection and fire-and-forget positions keep no
   state: they forward and act locally (a lost GC frame is repaired by
   the next round's catch-up rule). *)
let handle_relay cs i ~sites ~nparts ~pos ~inner =
  let forward skip = relay_forward cs i ~sites ~nparts ~pos ~inner ~skip in
  let local ~complete =
    match inner with
    | Messages.Advance_u { newu } -> advance_u_local cs i ~newu ~complete
    | Messages.Advance_q { newq } -> advance_q_local cs i ~newq ~complete
    | Messages.Garbage_collect { newg } -> handle_garbage_collect cs i ~newg
    | _ -> ()
  in
  match phase_key inner with
  | Some (kind, ver) when pos < nparts ->
      let r =
        match relay_find cs i ~root:sites.(0) ~ver ~kind with
        | Some r ->
            r.r_sites <- sites;
            forward (fun c -> r.r_child_acks.(c));
            r
        | None ->
            let r = phase_state cs ~sites ~nparts ~pos kind ver in
            (* Rounds more than two versions back can never complete
               (their coordinator has been superseded); drop their state
               here so the list stays bounded by the handful of live
               rounds. *)
            cs.relays.(i) <-
              r :: List.filter (fun r' -> r'.r_ver + 2 >= ver) cs.relays.(i);
            forward (fun _ -> false);
            r
      in
      local ~complete:(fun () ->
          r.r_self_done <- true;
          if r.r_acked then relay_ack_up cs i r
          else relay_maybe_complete cs i r)
  | _ ->
      forward (fun _ -> false);
      local ~complete:ignore

(* Upward aggregated acknowledgment: it settles one child slot, at the
   round's coordinator through the ordinary phase-ack handler, at an inner
   relay in the matching relay state.  An unknown (root, version, kind) is
   stale — e.g. this relay crashed and lost its state — and is dropped; the
   coordinator's retransmission rebuilds the state and the subtree
   re-acknowledges. *)
let handle_relay_ack cs i ~src ~root ~inner =
  match phase_key inner with
  | None -> ()
  | Some key when i = root -> handle_phase_ack cs i ~src key
  | Some (kind, ver) -> (
      match relay_find cs i ~root ~ver ~kind with
      | None -> ()
      | Some r ->
          set_child_slot cs r ~site:src true;
          relay_maybe_complete cs i r)

(* Failover, one rule at any depth: the promoted backup takes the dead
   primary's position in every relay record — each coordinator's current
   phase and every relay's — so retransmissions reach it and its
   subtree's aggregated acks climb to it.  The layout is replaced, not
   edited, since frames already sent share it.  The record at the dead
   position's parent, the coordinator or an inner relay, reopens that
   child's slot and owes a fresh upward ack: the successor owes its own
   phase ack even if the dead primary had already sent one.  A
   fire-and-forget position never acks, so its slot stays settled.  A
   promoted inner relay holds no record; the next frame rebuilds it, as
   it does for a recovered relay. *)
let on_promotion cs ~old_site ~new_site =
  let coord_rounds =
    List.filter_map (Option.map (fun c -> c.c_round)) (Array.to_list cs.coords)
  in
  List.iter
    (fun r ->
      match Array.find_index (( = ) old_site) r.r_sites with
      | None -> ()
      | Some pos ->
          r.r_sites <-
            Array.map (fun s -> if s = old_site then new_site else s) r.r_sites;
          if pos < r.r_nparts && tree_parent cs pos = r.r_pos then begin
            set_child_slot cs r ~site:new_site false;
            r.r_acked <- false
          end)
    (coord_rounds @ List.concat (Array.to_list cs.relays))

(* Abandonment (paper §3.2, generalised): a coordinator stops its run when
   a message shows another coordinator is a phase ahead in the same round,
   or that the system has already moved to a later round.  Stale runs would
   otherwise wait forever for acknowledgments that can no longer arrive.
   Relay frames count through their payload: a relayed advance carries the
   same evidence as a plain one. *)
let maybe_abandon cs i ~src msg =
  match cs.coords.(i) with
  | Some c when not c.c_abandoned ->
      let obsolete =
        match Messages.payload msg with
        | Messages.Advance_u { newu } -> newu > c.c_newu
        | Messages.Advance_q { newq } ->
            newq > c.c_newu - 1
            || (src <> i && c.c_round.r_kind = `U && newq = c.c_newu - 1)
        | Messages.Garbage_collect { newg } ->
            newg > c.c_newu - 2
            || (src <> i && c.c_round.r_kind = `Q && newg = c.c_newu - 2)
        | Messages.Ack_advance_u _ | Messages.Ack_advance_q _
        | Messages.Relay _ | Messages.Relay_ack _ | Messages.Ship _
        | Messages.Ship_ack _ ->
            false
      in
      if obsolete then begin
        c.c_abandoned <- true;
        cs.coords.(i) <- None;
        note cs
          (Sim.Event.Adv_abandon { site = i; round = c.c_newu; ahead = src })
      end
  | _ -> ()

let handler cs i ~src msg =
  maybe_abandon cs i ~src msg;
  match msg with
  | Messages.Advance_u { newu } ->
      advance_u_local cs i ~newu ~complete:(fun () ->
          Net.Network.send cs.net ~src:i ~dst:src
            (Messages.Ack_advance_u { newu }))
  | Messages.Advance_q { newq } ->
      advance_q_local cs i ~newq ~complete:(fun () ->
          Net.Network.send cs.net ~src:i ~dst:src
            (Messages.Ack_advance_q { newq }))
  | Messages.Ack_advance_u { newu } -> handle_phase_ack cs i ~src (`U, newu)
  | Messages.Ack_advance_q { newq } -> handle_phase_ack cs i ~src (`Q, newq)
  | Messages.Garbage_collect { newg } -> handle_garbage_collect cs i ~newg
  | Messages.Relay { sites; nparts; pos; inner } ->
      handle_relay cs i ~sites ~nparts ~pos ~inner
  | Messages.Relay_ack { root; inner } -> handle_relay_ack cs i ~src ~root ~inner
  | Messages.Ship { part; epoch; from_; records } ->
      Replication.handle_ship cs i ~part ~epoch ~from_ ~records
  | Messages.Ship_ack { part; epoch; upto } ->
      Replication.handle_ship_ack cs i ~src ~part ~epoch ~upto

let install cs =
  for i = 0 to node_count cs - 1 do
    Net.Network.set_handler cs.net ~node:i (fun ~src msg -> handler cs i ~src msg)
  done

(* Coordinator retransmission: handlers are idempotent, so periodically
   re-send the current phase's message to nodes that have not acknowledged.
   Covers crashed-and-recovered participants (the paper assumes messages are
   eventually delivered).  The loop is pinned to [c] by physical equality:
   if the coordinator crashes (volatile round state wiped) and later
   re-initiates the same [newu], the new round spawns its own loop and this
   one must die rather than double-resend. *)
let retransmit cs k c =
  let period = cs.config.Config.advancement_retry in
  let rec loop () =
    Sim.Engine.sleep period;
    match cs.coords.(k) with
    | Some c' when c' == c && not c.c_abandoned ->
        (* Re-send down the unacknowledged limbs only, as a relay handles a
           duplicate frame: the coordinator's own plain message if its
           share has not settled, and the frame of each open child slot.
           The duplicate frame repairs deeper losses as it travels (see
           [handle_relay]). *)
        let r = c.c_round in
        let inner =
          match r.r_kind with
          | `U -> Messages.Advance_u { newu = r.r_ver }
          | `Q -> Messages.Advance_q { newq = r.r_ver }
        in
        if not r.r_self_done then Net.Network.send cs.net ~src:k ~dst:k inner;
        relay_forward cs k ~sites:r.r_sites ~nparts:r.r_nparts ~pos:0 ~inner
          ~skip:(fun j -> r.r_child_acks.(j));
        loop ()
    | _ -> ()
  in
  Sim.Engine.spawn cs.engine ~name:"advancement-resend" loop

let start_round cs k ~newu =
  let sites, nparts = tree_layout cs k in
  let c =
    {
      c_newu = newu;
      c_started = now cs;
      c_phase1_done = now cs;
      c_abandoned = false;
      c_round = phase_state cs ~sites ~nparts ~pos:0 `U newu;
    }
  in
  cs.coords.(k) <- Some c;
  note cs (Sim.Event.Adv_start { site = k; newu });
  send_phase cs k c (Messages.Advance_u { newu });
  retransmit cs k c

let initiate cs ~coordinator:k =
  (* A coordinator id below the partition count names the partition,
     resolved to its current primary — periodic advancement keeps working
     across failovers.  A site that is not currently a primary cannot
     coordinate (it does not even receive phase acks). *)
  let k = home_site cs k in
  if not (is_primary_site cs k) then `Busy
  else
  match cs.coords.(k) with
  | Some _ -> `Busy
  | None when not (Node_state.alive (node cs k)) ->
      (* A crashed node cannot coordinate: its broadcasts would all be
         dropped and the retransmission loop would spin forever. *)
      `Busy
  | None ->
      let nd = node cs k in
      let u = Node_state.u nd and q = Node_state.q nd and g = Node_state.g nd in
      let lag = gc_lag cs in
      let fresh =
        if cs.config.Config.overlap_gc then u = q + 1
        else u - g <= 2 + lag && u = q + 1
      in
      if fresh then begin
        start_round cs k ~newu:(u + 1);
        `Started (u + 1)
      end
      else if u = q + 2 || (u = q + 1 && u = g + 3 + lag) then begin
        (* A previous round stalled (its coordinator crashed, or this node
           missed the garbage-collect broadcast): re-run the whole round
           idempotently with the same newu.  Local state alone cannot tell
           "stalled" from "still in progress", but re-running is safe either
           way — every phase re-waits its counters, so in particular Phase 3
           cannot fire while old-version queries are still live. *)
        start_round cs k ~newu:u;
        `Started u
      end
      else `Busy

(* Rounds answer for the version counters of the synced copies only: a
   dead site or an out-of-sync backup catches up on its own schedule —
   possibly never, if it stays partitioned — and must not hold "the
   advancement is done" hostage. *)
let in_progress cs =
  Array.exists (fun c -> c <> None) cs.coords
  || Array.exists
       (fun nd ->
         synced cs nd
         && (Node_state.u nd <> Node_state.q nd + 1
            || Node_state.g nd < Node_state.q nd - 1 - gc_lag cs))
       cs.nodes

let await_published cs ~newu =
  Sim.Condition.await_until cs.state_changed ~pred:(fun () ->
      Array.for_all
        (fun nd -> (not (synced cs nd)) || Node_state.q nd >= newu - 1)
        cs.nodes)

let await_completion cs ~newu =
  Sim.Condition.await_until cs.state_changed ~pred:(fun () ->
      Array.for_all
        (fun nd ->
          (not (synced cs nd))
          || (Node_state.q nd >= newu - 1
             && Node_state.g nd >= newu - 2 - gc_lag cs))
        cs.nodes)
