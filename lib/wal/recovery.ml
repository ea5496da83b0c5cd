type versions = {
  update_version : int;
  query_version : int;
  collected_version : int;
}

let checkpoint log ~store ~u ~q ~g =
  let items = Vstore.Store.snapshot store in
  Log.truncate log;
  Log.append log (Record.Checkpoint { items; u; q; g });
  (* A checkpoint is a synchronous disk write: the snapshot is on stable
     storage before the truncated log is reused. *)
  Log.mark_all_durable log

type 'v pending = (int, (string * 'v option) list) Hashtbl.t

let pending () = Hashtbl.create 16

let rec drop n l =
  if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

let redo pending store record =
  match record with
  | Record.Begin { txn; _ } -> Hashtbl.replace pending txn []
  | Record.Update { txn; key; value } ->
      let writes = Option.value (Hashtbl.find_opt pending txn) ~default:[] in
      Hashtbl.replace pending txn ((key, value) :: writes)
  | Record.Commit { txn; final_version } -> (
      match Hashtbl.find_opt pending txn with
      | None -> ()
      | Some writes ->
          List.iter
            (fun (key, value) ->
              match value with
              | Some v -> Vstore.Store.write store key final_version v
              | None -> Vstore.Store.delete store key final_version)
            (List.rev writes);
          Hashtbl.remove pending txn)
  | Record.Rollback { txn; keep } -> (
      (* Writes are kept newest-first: keeping the first [keep]
         chronological records means dropping from the front. *)
      match Hashtbl.find_opt pending txn with
      | None -> ()
      | Some writes ->
          Hashtbl.replace pending txn (drop (List.length writes - keep) writes))
  | Record.Abort { txn } -> Hashtbl.remove pending txn
  | Record.Checkpoint _ -> Hashtbl.reset pending
  | Record.Advance_update _ | Record.Advance_query _ | Record.Collect _ -> ()

let replay log ?bound ?gc_renumber ?(pending = pending ()) () =
  let store = ref (Vstore.Store.create ?bound ?gc_renumber ()) in
  let u = ref 1 and q = ref 0 and g = ref (-1) in
  List.iter
    (fun record ->
      redo pending !store record;
      match record with
      | Record.Advance_update v -> if v > !u then u := v
      | Record.Advance_query v -> if v > !q then q := v
      | Record.Collect { collect; query } ->
          if collect > !g then begin
            g := collect;
            Vstore.Store.gc !store ~collect ~query
          end
      | Record.Checkpoint { items; u = cu; q = cq; g = cg } ->
          store := Vstore.Store.restore ?bound ?gc_renumber items;
          u := cu;
          q := cq;
          g := cg
      | Record.Begin _ | Record.Update _ | Record.Commit _ | Record.Rollback _
      | Record.Abort _ ->
          ())
    (Log.records log);
  (!store, { update_version = !u; query_version = !q; collected_version = !g })

let committed_transactions log =
  List.filter_map
    (function Record.Commit { txn; _ } -> Some txn | _ -> None)
    (Log.records log)

let in_flight_transactions log =
  let begun = Hashtbl.create 32 in
  List.iter
    (fun record ->
      match record with
      | Record.Begin { txn; _ } -> Hashtbl.replace begun txn true
      | Record.Commit { txn; _ } | Record.Abort { txn } ->
          Hashtbl.replace begun txn false
      | _ -> ())
    (Log.records log);
  Hashtbl.fold (fun txn live acc -> if live then txn :: acc else acc) begun []
  |> List.sort compare
