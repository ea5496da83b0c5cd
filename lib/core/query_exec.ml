open Cluster_state

type 'v result = 'v Query_core.result = {
  txn_id : int;
  version : int;
  values : (int * string * 'v option) list;
  started_at : float;
  finished_at : float;
  staleness : float option;
}

(* Every flat shape is a driver over {!Query_core}: it owns the version
   pin, the counters, the routing of each partition ({!Query_core.fetch})
   and the result; only the per-partition fetch lives here. *)

let run cs ~root ~reads =
  let read_service = cs.config.Config.read_service_time in
  let read q (n, key) =
    let value =
      Query_core.fetch q n (fun nd ->
          Sim.Engine.sleep read_service;
          Vstore.Store.read_le (Node_state.store nd) key (Query_core.version q))
    in
    (n, key, value)
  in
  fst
    (Query_core.run cs ~root ~kind:`Read (fun q ->
         (List.map (read q) reads, ())))

let run_scan cs ~root ~ranges =
  let read_service = cs.config.Config.read_service_time in
  let scan q (n, lo, hi) =
    Query_core.fetch q n (fun nd ->
        (* Charge one read for the probe up front — mirroring [run], which
           sleeps before the read — then one per item returned. *)
        Sim.Engine.sleep read_service;
        let results =
          Vstore.Store.range (Node_state.store nd) ~lo ~hi
            (Query_core.version q)
        in
        Sim.Engine.sleep (read_service *. float_of_int (List.length results));
        results)
    |> List.map (fun (key, value) -> (n, key, Some value))
  in
  fst
    (Query_core.run cs ~root ~kind:`Scan (fun q ->
         (List.concat_map (scan q) ranges, ())))

(* {2 Predicate selects and joins over the secondary index}

   Both are ordinary read-only transactions; the fan-out unit is a
   per-partition attribute-range select ({!Query_core.select}) instead of
   a key lookup. *)

type select_plan = [ `Index | `Full_scan | `Both_check ]

exception
  Index_mismatch of {
    node : int;
    version : int;
    indexed : int;
    full_scan : int;
  }

(* Fetch one partition's rows for an attribute range, and fail the whole
   query on an index/full-scan divergence. *)
let select_part q ~(plan : select_plan) (n, lo, hi) =
  let rows, reference =
    Query_core.fetch q n (fun nd -> Query_core.select q ~plan nd ~lo ~hi)
  in
  (match reference with
  | Some reference when rows <> reference ->
      raise
        (Index_mismatch
           {
             node = n;
             version = Query_core.version q;
             indexed = List.length rows;
             full_scan = List.length reference;
           })
  | _ -> ());
  rows

let run_select cs ~root ~plan ~ranges =
  fst
    (Query_core.run cs ~root ~kind:`Select (fun q ->
         ( List.concat_map
             (fun ((n, _, _) as range) ->
               select_part q ~plan range
               |> List.map (fun (key, value) -> (n, key, Some value)))
             ranges,
           () )))

type 'v join_row = int * string * 'v

type 'v join_result = {
  join : 'v Query_core.result;
  pairs : ('v join_row * 'v join_row) list;
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
let run_join cs ~root ~plan ~build:(bparts, blo, bhi) ~probe:(pparts, plo, phi)
    =
  let join, pairs =
    Query_core.run cs ~root ~kind:`Join (fun q ->
        let side (parts, lo, hi) =
          List.concat_map
            (fun n ->
              select_part q ~plan (n, lo, hi)
              |> List.map (fun (key, value) -> (n, key, value)))
            parts
        in
        let build_rows = side (bparts, blo, bhi) in
        let probe_rows = side (pparts, plo, phi) in
        Sim.Engine.sleep
          (cs.config.Config.read_service_time
          *. float_of_int (List.length build_rows + List.length probe_rows));
        let ix = Query_core.index (Query_core.root_node q) in
        let key_of (_, _, value) = Vindex.Index.extract ix value in
        ( List.map
            (fun (n, key, value) -> (n, key, Some value))
            (build_rows @ probe_rows),
          Vindex.Join.hash_join ~compare_build:row_compare
            ~compare_probe:row_compare ~build:build_rows ~probe:probe_rows
            ~build_key:key_of ~probe_key:key_of ))
  in
  { join; pairs }
