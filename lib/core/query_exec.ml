open Cluster_state

type 'v result = 'v Query_core.result = {
  txn_id : int;
  version : int;
  values : (int * string * 'v option) list;
  started_at : float;
  finished_at : float;
  staleness : float option;
}

(* Both flat paths are drivers over {!Query_core}: it owns the version
   pin, the closed guard, counter registration and the ordered release;
   only the read shape (point reads vs range scans) lives here.

   Replication: the root pin lives at the root partition's primary
   ({!Query_core.start}); reads of other partitions are routed through
   {!Replication.route_read}, which load-balances across the primary and
   every caught-up backup that can serve the pinned version. *)

let run cs ~root ~reads =
  let q = Query_core.start cs ~root ~kind:`Read in
  let root_site = Node_state.id (Query_core.root_node q) in
  let v = Query_core.version q in
  let read_service = cs.config.Config.read_service_time in
  let read_local nd key =
    Sim.Engine.sleep read_service;
    Vstore.Store.read_le (Node_state.store nd) key v
  in
  let read_one (n, key) =
    if n = root then (n, key, read_local (Query_core.root_node q) key)
    else
      let site =
        if replicated cs && n < nparts cs then
          Replication.route_read cs ~src:root_site ~part:n ~pin:v
        else n
      in
      let value =
        Net.Network.call cs.net ~src:root_site ~dst:site (fun () ->
            read_local (Query_core.visit q site) key)
      in
      (n, key, value)
  in
  match List.map read_one reads with
  | values -> Query_core.complete q ~values
  | exception e -> Query_core.on_error q e

(* {2 Predicate selects and joins over the secondary index}

   Both new query kinds are ordinary read-only transactions: they pin a
   version at the root, register counters on every partition they touch,
   and release in order — exactly the {!Query_core} lifecycle of point
   reads and key-range scans.  The fan-out unit is a per-partition
   attribute-range probe instead of a key lookup. *)

type select_plan = [ `Index | `Full_scan | `Both_check ]

exception
  Index_mismatch of {
    node : int;
    version : int;
    indexed : int;
    full_scan : int;
  }

(* One attribute-range select at the serving node.  Returns the result
   rows plus, under [`Both_check], the full-scan reference computed
   back-to-back at the same pinned version (no yield between the two
   plans, so any difference is the index's fault, not a race).

   Cost model: one probe charge up front (mirroring [run]/[run_scan]),
   then one read-service per row the chosen access path touches — result
   rows for the index plan, {e every item visible at the pin} for the
   full-scan plan.  That asymmetry is the point of the index: an
   analytical predicate selecting few rows pays O(matches) instead of
   O(items).  [`Both_check] charges as the index plan; its reference scan
   is oracle overhead, not workload. *)
let select_local cs q ~(plan : select_plan) nd ~lo ~hi =
  let read_service = cs.config.Config.read_service_time in
  let v = Query_core.version q in
  Sim.Engine.sleep read_service;
  let ix = Query_core.index nd in
  match plan with
  | `Index ->
      let rows = Query_core.probe_index q nd ~lo ~hi in
      Sim.Engine.sleep (read_service *. float_of_int (List.length rows));
      (rows, None)
  | `Full_scan ->
      let visited = Vstore.Store.scan_all (Node_state.store nd) v in
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
      let rows = Query_core.probe_index q nd ~lo ~hi in
      let reference = Vindex.Index.full_scan ix ~lo ~hi v in
      Sim.Engine.sleep (read_service *. float_of_int (List.length rows));
      (rows, Some reference)

(* Fetch one partition's rows for an attribute range, routed like every
   other read (backups may serve it when caught up to the pin), and fail
   the whole query on an index/full-scan divergence. *)
let select_part cs q ~root ~root_site ~plan v (n, lo, hi) =
  let rows, reference =
    if n = root then select_local cs q ~plan (Query_core.root_node q) ~lo ~hi
    else
      let site =
        if replicated cs && n < nparts cs then
          Replication.route_read cs ~src:root_site ~part:n ~pin:v
        else n
      in
      Net.Network.call cs.net ~src:root_site ~dst:site (fun () ->
          select_local cs q ~plan (Query_core.visit q site) ~lo ~hi)
  in
  (match reference with
  | Some reference when rows <> reference ->
      raise
        (Index_mismatch
           {
             node = n;
             version = v;
             indexed = List.length rows;
             full_scan = List.length reference;
           })
  | _ -> ());
  rows

let run_select cs ~root ~(plan : select_plan) ~ranges =
  let q = Query_core.start cs ~root ~kind:`Select in
  let root_site = Node_state.id (Query_core.root_node q) in
  let v = Query_core.version q in
  let select_one (n, lo, hi) =
    select_part cs q ~root ~root_site ~plan v (n, lo, hi)
    |> List.map (fun (key, value) -> (n, key, Some value))
  in
  match List.concat_map select_one ranges with
  | values -> Query_core.complete q ~values
  | exception e -> Query_core.on_error q e

type 'v join_row = int * string * 'v

type 'v join_result = {
  join : 'v Query_core.result;
      (** the underlying read-only transaction; [values] holds every build
          then probe row the join consumed, in fan-out order *)
  pairs : ('v join_row * 'v join_row) list;
      (** matched (build, probe) pairs, in (build, probe) row-id order *)
}

let row_compare (an, ak, _) (bn, bk, _) =
  match Int.compare an bn with 0 -> String.compare ak bk | c -> c

(* Hash join of two attribute ranges, executed as one long read-only
   transaction: both sides' per-partition rows are fetched under a single
   pin (the paper's motivating decision-support query), then joined at the
   root on the indexed attribute.  The join operator itself charges one
   read-service per input row; its output is ordered by (build, probe)
   row id, so it is independent of the access-path plan whenever the
   inputs match. *)
let run_join cs ~root ~(plan : select_plan) ~build:(bparts, blo, bhi)
    ~probe:(pparts, plo, phi) =
  let q = Query_core.start cs ~root ~kind:`Join in
  let root_site = Node_state.id (Query_core.root_node q) in
  let v = Query_core.version q in
  let side (parts, lo, hi) =
    List.concat_map
      (fun n ->
        select_part cs q ~root ~root_site ~plan v (n, lo, hi)
        |> List.map (fun (key, value) -> (n, key, value)))
      parts
  in
  match
    let build_rows = side (bparts, blo, bhi) in
    let probe_rows = side (pparts, plo, phi) in
    Sim.Engine.sleep
      (cs.config.Config.read_service_time
      *. float_of_int (List.length build_rows + List.length probe_rows));
    let ix = Query_core.index (Query_core.root_node q) in
    let key_of (_, _, value) = Vindex.Index.extract ix value in
    Vindex.Join.hash_join ~compare_build:row_compare ~compare_probe:row_compare
      ~build:build_rows ~probe:probe_rows ~build_key:key_of ~probe_key:key_of
    |> fun pairs -> (build_rows, probe_rows, pairs)
  with
  | build_rows, probe_rows, pairs ->
      let values =
        List.map (fun (n, key, value) -> (n, key, Some value)) build_rows
        @ List.map (fun (n, key, value) -> (n, key, Some value)) probe_rows
      in
      { join = Query_core.complete q ~values; pairs }
  | exception e -> Query_core.on_error q e

let run_scan cs ~root ~ranges =
  let q = Query_core.start cs ~root ~kind:`Scan in
  let root_site = Node_state.id (Query_core.root_node q) in
  let v = Query_core.version q in
  let read_service = cs.config.Config.read_service_time in
  let scan_local nd ~lo ~hi =
    (* Charge one read for the probe up front — mirroring [run], which
       sleeps before the read — then one per item returned. *)
    Sim.Engine.sleep read_service;
    let results = Vstore.Store.range (Node_state.store nd) ~lo ~hi v in
    Sim.Engine.sleep (read_service *. float_of_int (List.length results));
    results
  in
  let scan_one (n, lo, hi) =
    let values =
      if n = root then scan_local (Query_core.root_node q) ~lo ~hi
      else
        let site =
          if replicated cs && n < nparts cs then
            Replication.route_read cs ~src:root_site ~part:n ~pin:v
          else n
        in
        Net.Network.call cs.net ~src:root_site ~dst:site (fun () ->
            scan_local (Query_core.visit q site) ~lo ~hi)
    in
    List.map (fun (key, value) -> (n, key, Some value)) values
  in
  match List.concat_map scan_one ranges with
  | values -> Query_core.complete q ~values
  | exception e -> Query_core.on_error q e
