(* 64-bit FNV-1a, folded over a canonical rendering of the state.  The
   explorer only compares fingerprints for equality, so all that matters
   is that equal states hash equal (canonical ordering below) and that
   unequal states collide with probability ~2^-64. *)

type t = int64

let empty = 0xCBF29CE484222325L
let prime = 0x100000001B3L

let byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xff))) prime

let int64 h v =
  let h = ref h in
  for i = 0 to 7 do
    h := byte !h (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done;
  !h

let int h v = int64 h (Int64.of_int v)
let bool h b = int h (if b then 1 else 0)
let float h f = int64 h (Int64.bits_of_float f)

let string h s =
  let h = ref (int h (String.length s)) in
  String.iter (fun c -> h := byte !h (Char.code c)) s;
  !h

let option f h = function None -> int h (-1) | Some v -> f (int h 1) v
let list f h l = List.fold_left f (int h (List.length l)) l

let to_hex v = Printf.sprintf "%016Lx" v

(* Engine-level component: virtual time plus the in-flight work.  Two
   states with equal data but different pending activity must not be
   merged — their futures differ — so the whole (time, label) multiset
   of pending events goes in, not just a count: a count would merge
   every pair of same-time choice points whose intervening event left
   the data untouched, and exploration would prune itself to nothing. *)
let engine h engine =
  let h = float h (Sim.Engine.now engine) in
  let h = int h (Sim.Engine.suspended_count engine) in
  list
    (fun h (t, l) -> option string (float h t) l)
    h
    (Sim.Engine.pending_summary engine)

(* A store snapshot is in key order, whatever the hash table's insertion
   history, so schedules that reach the same logical state hash alike. *)
let snapshot f h items =
  list
    (fun h (key, versions) ->
      let h = string h key in
      list
        (fun h (v, value) ->
          let h = int h v in
          option f h value)
        h versions)
    h items

let store f h st = snapshot f h (Vstore.Store.snapshot st)

(* Full cluster state: per-node liveness, version numbers, counter
   occupancy and store contents, plus the cluster-wide protocol counters
   (so histories that diverged, even if their data converged, stay
   distinct) and the engine component. *)
let cluster ~value (db : _ Ava3.Cluster.t) =
  let h = ref empty in
  for i = 0 to Ava3.Cluster.node_count db - 1 do
    let nd = Ava3.Cluster.node db i in
    h := int !h i;
    h := bool !h (Ava3.Node_state.alive nd);
    h := int !h (Ava3.Node_state.u nd);
    h := int !h (Ava3.Node_state.q nd);
    h := int !h (Ava3.Node_state.g nd);
    h := int !h (Ava3.Node_state.active_update_transactions nd);
    (* Counter occupancy over the live version window and the lock
       table: a node can look identical in data while a query pins an
       old version or a transaction holds locks, and those states'
       futures differ. *)
    for v = max 0 (Ava3.Node_state.g nd) to Ava3.Node_state.u nd do
      h := int !h (Ava3.Node_state.update_count nd ~version:v);
      h := int !h (Ava3.Node_state.query_count nd ~version:v)
    done;
    let locks = Ava3.Node_state.locks nd in
    let locked = ref [] in
    Lockmgr.Lock_table.iter_locked locks (fun key holders waiters ->
        locked := (key, holders, waiters) :: !locked);
    let mode_bit = function
      | Lockmgr.Lock_table.Shared -> 0
      | Lockmgr.Lock_table.Exclusive -> 1
    in
    let owner h (owner, mode) = int (int h owner) (mode_bit mode) in
    h :=
      list
        (fun h (key, holders, waiters) ->
          list owner (list owner (string h key) holders) waiters)
        !h
        (List.sort compare !locked);
    h := store value !h (Ava3.Node_state.store nd)
  done;
  let s = Ava3.Cluster.stats db in
  h := int !h s.Ava3.Cluster.commits;
  h := int !h s.Ava3.Cluster.aborts;
  h := int !h s.Ava3.Cluster.queries;
  h := int !h s.Ava3.Cluster.advancements;
  h := int !h s.Ava3.Cluster.mtf_data_access;
  h := int !h s.Ava3.Cluster.mtf_commit_time;
  h := int !h s.Ava3.Cluster.messages;
  h := bool !h (Ava3.Cluster.advancement_in_progress db);
  engine !h (Ava3.Cluster.engine db)

let cluster_int db = cluster ~value:int db
