open Cluster_state

type 'v result = {
  txn_id : int;
  version : int;
  values : (int * string * 'v option) list;
  started_at : float;
  finished_at : float;
  staleness : float option;
}

type 'v t = {
  cs : 'v Cluster_state.t;
  root : int;
  root_node : 'v Node_state.t;
  txn_id : int;
  started_at : float;
  version : int;
  kind : Sim.Event.query_kind;
  child_counters : bool;
  touched : (int, unit) Hashtbl.t;
  (* Set once the query released its counters: a request still in flight
     at that point (its caller timed out) must not register fresh
     counters no cleanup pass will ever see. *)
  closed : bool ref;
  mutable child_nodes : 'v Node_state.t list;
}

let start cs ~root ~kind =
  (* The root pin must live at a primary: only primary query counters gate
     Phase 2, so a pin at a backup would not hold garbage collection off.
     Non-root reads may still be served by backups (see
     {!Replication.route_read}) — safely, because this root pin is what
     keeps the snapshot alive cluster-wide. *)
  let root = home_site cs root in
  let root_node = node cs root in
  if not (Node_state.alive root_node) then raise (Net.Network.Node_down root);
  let txn_id = Node_state.fresh_txn_id root_node in
  let started_at = now cs in
  (* §3.3 step 1, atomic: pin the version and announce ourselves.  The
     counter is what prevents garbage collection of this snapshot anywhere
     in the system while we run. *)
  let v = Node_state.q root_node in
  Node_state.incr_query_count root_node ~version:v;
  note cs
    (Sim.Event.Query_start { query = txn_id; site = root; version = v; kind });
  {
    cs;
    root;
    root_node;
    txn_id;
    started_at;
    version = v;
    kind;
    child_counters = not cs.config.Config.root_only_query_counters;
    touched = Hashtbl.create 4;
    closed = ref false;
    child_nodes = [];
  }

let version t = t.version
let root_node t = t.root_node

(* First visit to a child node (flat executors): catch its query version
   up (§3.3 step 2 — advancement has begun but this node has not heard
   yet) and register in its counter, deferring the release to [finish].
   No-op once the query closed or on repeat visits. *)
let visit t n =
  let nd = node t.cs n in
  if (not !(t.closed)) && not (Hashtbl.mem t.touched n) then begin
    Hashtbl.replace t.touched n ();
    (* The catch-up write is a log append; only primaries may append
       (a backup's log must stay a prefix of its primary's).  A backup is
       only ever visited when its applied q already covers the pin
       (routing eligibility), so the branch is dead there anyway. *)
    if t.version > Node_state.q nd && is_primary_site t.cs (Node_state.id nd)
    then begin
      Node_state.set_q nd t.version;
      note_version_change t.cs
    end;
    if t.child_counters then begin
      Node_state.incr_query_count nd ~version:t.version;
      t.child_nodes <- nd :: t.child_nodes
    end
  end;
  nd

(* Tree-style visit: the subquery holds its own counter for the duration
   of its subtree and releases it itself via [leave_subquery].  Returns
   whether a counter was actually taken, so a dispatch that lost the
   race with [finish] (the caller timed out and closed the query) never
   pairs a decrement with an increment that did not happen. *)
let enter_subquery t n =
  let nd = node t.cs n in
  if not (Node_state.alive nd) then raise (Net.Network.Node_down n);
  if !(t.closed) then (nd, false)
  else begin
    if t.version > Node_state.q nd then begin
      Node_state.set_q nd t.version;
      note_version_change t.cs
    end;
    if t.child_counters then begin
      Node_state.incr_query_count nd ~version:t.version;
      (nd, true)
    end
    else (nd, false)
  end

let leave_subquery t nd ~taken =
  if taken then Node_state.decr_query_count nd ~version:t.version

(* Counter bookkeeping runs on direct references, not network calls: if
   the root's node dies mid-query, the decrements must still reach the
   child nodes, or their leaked counters would block Phase 2 forever.
   Children decrement before the root: the root's counter is the one
   whose drain unblocks Phase 2, and it must be last to go. *)
let finish t =
  t.closed := true;
  if t.child_counters then
    List.iter
      (fun nd -> Node_state.decr_query_count nd ~version:t.version)
      t.child_nodes;
  Node_state.decr_query_count t.root_node ~version:t.version

let index nd =
  match Node_state.index nd with
  | Some ix -> ix
  | None ->
      invalid_arg
        "Query_core: node has no secondary index (pass ~index to \
         Cluster.create)"

(* The [Config.Index_skip_visibility] mutant probes the newest entries
   instead of the pin. *)
let probe_index t nd ~lo ~hi =
  let at =
    match t.cs.config.Config.mutant with
    | Some Index_skip_visibility -> max_int
    | _ -> t.version
  in
  Vindex.Index.probe (index nd) ~lo ~hi at

(* Cost model: one probe charge up front (as a point read sleeps before
   it reads), then one read-service per row the chosen access path
   touches — result rows for the index plan, {e every item visible at the
   pin} for the full-scan plan.  That asymmetry is the point of the
   index: an analytical predicate selecting few rows pays O(matches)
   instead of O(items).  [`Both_check] charges as the index plan; its
   reference scan, computed back-to-back at the same pin with no yield
   between the two plans, is oracle overhead, not workload. *)
let select t ~plan nd ~lo ~hi =
  let read_service = t.cs.config.Config.read_service_time in
  Sim.Engine.sleep read_service;
  let ix = index nd in
  match plan with
  | `Index ->
      let rows = probe_index t nd ~lo ~hi in
      Sim.Engine.sleep (read_service *. float_of_int (List.length rows));
      (rows, None)
  | `Full_scan ->
      let visited = Vstore.Store.scan_all (Node_state.store nd) t.version in
      Sim.Engine.sleep (read_service *. float_of_int (List.length visited));
      let rows =
        List.filter
          (fun (_, value) ->
            let a = Vindex.Index.extract ix value in
            lo <= a && a <= hi)
          visited
      in
      (rows, None)
  | `Both_check ->
      (* The [Index_skip_visibility] mutant bends the probe only; the
         reference scan keeps the pin. *)
      let rows = probe_index t nd ~lo ~hi in
      let reference = Vindex.Index.full_scan ix ~lo ~hi t.version in
      Sim.Engine.sleep (read_service *. float_of_int (List.length rows));
      (rows, Some reference)

let run cs ~root ~kind body =
  let t = start cs ~root ~kind in
  match body t with
  | values, extra ->
      finish t;
      note t.cs
        (Sim.Event.Query_done
           { query = t.txn_id; root = t.root; kind = t.kind });
      ( {
          txn_id = t.txn_id;
          version = t.version;
          values;
          started_at = t.started_at;
          finished_at = now t.cs;
          staleness = staleness_of t.cs ~version:t.version ~at:t.started_at;
        },
        extra )
  | exception e ->
      (* A touched node died mid-query: release what we can and re-raise. *)
      (try finish t with _ -> ());
      raise e

(* The flat executors' routing rule.  The root partition is read at the
   pinned root node without a visit, which would take a second counter
   there.  Any other partition is read over RPC at the site that serves
   it, visited first: the primary or a backup caught up to the pin, chosen
   by {!Replication.route_read}. *)
let fetch t n f =
  if home_site t.cs n = t.root then f t.root_node
  else
    let site =
      if n < nparts t.cs then
        Replication.route_read t.cs ~src:t.root ~part:n ~pin:t.version
      else n
    in
    Net.Network.run_at t.cs.net ~src:t.root ~dst:site (fun () ->
        f (visit t site))
