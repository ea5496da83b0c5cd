type kind = No_undo | Undo_redo

let kind_name = function No_undo -> "no-undo" | Undo_redo -> "undo-redo"

type 'v undo_image = Absent | Was_value of 'v | Was_tombstone

type 'v session = {
  s_txn : int;
  mutable s_version : int;
  (* No_undo: deferred writes; [ws_order] keeps first-write order so commit
     applies deterministically. *)
  workspace : (string, 'v option) Hashtbl.t;
  mutable ws_order : string list; (* reversed *)
  (* Undo_redo: one in-memory undo image per touched key (first touch wins),
     newest first. *)
  mutable undo_log : (string * 'v undo_image) list;
  (* Update records appended so far — savepoints log how many to keep. *)
  mutable s_writes : int;
}

type 'v savepoint = {
  sp_writes : int;
  (* No_undo: the workspace as of the mark. *)
  sp_ws_order : string list;
  sp_workspace : (string * 'v option) list;
  (* Undo_redo: keys touched before the mark, with the store image each had
     at the mark (so post-mark in-place overwrites can be reverted). *)
  sp_marked : (string * 'v undo_image) list;
}

type 'v t = { scheme_kind : kind; st : 'v Vstore.Store.t; wal : 'v Log.t }

let create kind ~store ~log = { scheme_kind = kind; st = store; wal = log }

let kind t = t.scheme_kind
let store t = t.st
let log t = t.wal

let begin_session t ~txn ~version =
  Log.append t.wal (Record.Begin { txn; version });
  {
    s_txn = txn;
    s_version = version;
    workspace = Hashtbl.create 8;
    ws_order = [];
    undo_log = [];
    s_writes = 0;
  }

let txn s = s.s_txn
let version s = s.s_version

let read_own t s key =
  match t.scheme_kind with
  | Undo_redo -> None
  | No_undo -> Hashtbl.find_opt s.workspace key

(* Snapshot what exists at exactly (key, version) so it can be restored. *)
let capture_image t key v =
  if Vstore.Store.exists_in t.st key v then
    match Vstore.Store.read_exact t.st key v with
    | Some value -> Was_value value
    | None -> Was_tombstone
  else Absent

let apply_image t key v = function
  | Absent -> Vstore.Store.remove_version t.st key v
  | Was_value value -> Vstore.Store.write t.st key v value
  | Was_tombstone -> Vstore.Store.delete t.st key v

let apply_to_store t key v = function
  | Some value -> Vstore.Store.write t.st key v value
  | None -> Vstore.Store.delete t.st key v

let write t s key value =
  Log.append t.wal (Record.Update { txn = s.s_txn; key; value });
  s.s_writes <- s.s_writes + 1;
  match t.scheme_kind with
  | No_undo ->
      if not (Hashtbl.mem s.workspace key) then s.ws_order <- key :: s.ws_order;
      Hashtbl.replace s.workspace key value
  | Undo_redo ->
      if not (List.mem_assoc key s.undo_log) then
        s.undo_log <- (key, capture_image t key s.s_version) :: s.undo_log;
      apply_to_store t key s.s_version value

let move_to_future t s ~new_version =
  let copied = ref 0 in
  if new_version > s.s_version then begin
    (match t.scheme_kind with
    | No_undo ->
        (* Deferred writes carry no version: promoting the session's version
           is the whole job. *)
        ()
    | Undo_redo ->
        let old_version = s.s_version in
        (* Newest-first walk: copy each touched item's current state (which
           includes this transaction's updates) into the new version, then
           scrub the old version with the undo image.  Exclusive locks held
           by the transaction guarantee nothing exists yet at new_version. *)
        List.iter
          (fun (key, image) ->
            if Vstore.Store.exists_in t.st key old_version then begin
              Vstore.Store.copy_forward t.st key ~src:old_version
                ~dst:new_version;
              incr copied
            end;
            apply_image t key old_version image)
          s.undo_log;
        (* The items now live at new_version where nothing pre-existed. *)
        s.undo_log <- List.map (fun (key, _) -> (key, Absent)) s.undo_log);
    s.s_version <- new_version
  end;
  !copied

let savepoint t s =
  match t.scheme_kind with
  | No_undo ->
      {
        sp_writes = s.s_writes;
        sp_ws_order = s.ws_order;
        sp_workspace =
          List.map (fun key -> (key, Hashtbl.find s.workspace key)) s.ws_order;
        sp_marked = [];
      }
  | Undo_redo ->
      {
        sp_writes = s.s_writes;
        sp_ws_order = [];
        sp_workspace = [];
        (* Capture what each already-touched key holds *now* (not its
           first-touch undo image): rollback must revert post-mark
           overwrites while keeping pre-mark ones. *)
        sp_marked =
          List.map
            (fun (key, _) -> (key, capture_image t key s.s_version))
            s.undo_log;
      }

let rollback_to t s sp =
  (match t.scheme_kind with
  | No_undo ->
      Hashtbl.reset s.workspace;
      List.iter
        (fun (key, value) -> Hashtbl.replace s.workspace key value)
        sp.sp_workspace;
      s.ws_order <- sp.sp_ws_order
  | Undo_redo ->
      (* Keys first touched after the mark: scrub them with their undo image
         and drop the entries.  Images captured after the last moveToFuture
         are valid at the session's current version; entries predating an
         mtf were rewritten to [Absent] by it, which correctly scrubs the
         copied-forward slot. *)
      s.undo_log <-
        List.filter
          (fun (key, image) ->
            let marked = List.mem_assoc key sp.sp_marked in
            if not marked then apply_image t key s.s_version image;
            marked)
          s.undo_log;
      (* Keys touched before the mark: restore their mark-time store image
         at the current version (reverting any post-mark overwrite).  Their
         surviving undo entries still record the transaction-start state,
         so a later full abort remains correct. *)
      List.iter
        (fun (key, image) -> apply_image t key s.s_version image)
        sp.sp_marked);
  Log.append t.wal (Record.Rollback { txn = s.s_txn; keep = sp.sp_writes });
  s.s_writes <- sp.sp_writes

let commit t s ~final_version =
  (match t.scheme_kind with
  | No_undo ->
      List.iter
        (fun key -> apply_to_store t key final_version (Hashtbl.find s.workspace key))
        (List.rev s.ws_order)
  | Undo_redo ->
      if final_version <> s.s_version then
        invalid_arg
          "Scheme.commit: undo-redo session must be moved to its final \
           version before commit");
  Log.append t.wal (Record.Commit { txn = s.s_txn; final_version })

let abort t s =
  (match t.scheme_kind with
  | No_undo ->
      Hashtbl.reset s.workspace;
      s.ws_order <- []
  | Undo_redo ->
      List.iter (fun (key, image) -> apply_image t key s.s_version image) s.undo_log;
      s.undo_log <- []);
  Log.append t.wal (Record.Abort { txn = s.s_txn })
