module Store = Vstore.Store
module Smap = Map.Make (String)
module Sset = Set.Make (String)

(* The index is a sorted map from extracted attribute to the primary keys
   that carry that attribute in ANY live version, each with the store's
   handle on the key's record, plus a per-key cache of the attributes its
   live value entries currently carry.  The version dimension stays in the
   base store: a probe resolves every posting through its handle at the
   pinned version, so index entries follow the same three-slot visibility
   discipline as base rows without duplicating them.  Maintenance is
   driven by the store's mutation listener ({!Store.set_listener}): every
   mutation path — update execution, moveToFuture, GC, prune, WAL replay,
   replication apply, checkpoint restore — funnels through the store's
   write/delete/copy_forward/remove_version/gc/prune_below operations, so
   consistency holds by construction, not by call-site discipline. *)

type stats = { updates : int; probes : int; candidates : int }

type 'v t = {
  base : 'v Store.t;
  extract : 'v -> string;
  mutable postings : 'v Store.handle Smap.t Smap.t;
      (* attribute -> primary key -> the key's record, for every key with
         a live value entry carrying the attribute *)
  live : (string, Sset.t) Hashtbl.t;
      (* primary key -> attributes over its live value entries *)
  mutable updates : int;
  mutable probes : int;
  mutable candidates : int;
}

let add_posting t attr pkey handle =
  let keys =
    Option.value (Smap.find_opt attr t.postings) ~default:Smap.empty
  in
  t.postings <- Smap.add attr (Smap.add pkey handle keys) t.postings

let drop_posting t attr pkey =
  match Smap.find_opt attr t.postings with
  | None -> ()
  | Some keys ->
      let keys = Smap.remove pkey keys in
      t.postings <-
        (if Smap.is_empty keys then Smap.remove attr t.postings
         else Smap.add attr keys t.postings)

(* The attributes over the live value entries of the key's record. *)
let attrs_of t handle =
  match handle with
  | None -> Sset.empty
  | Some h ->
      Store.fold_values (fun acc v -> Sset.add (t.extract v) acc) Sset.empty h

(* Recompute the key's live attribute set from its record (at most three
   live versions, so O(1) per call) and diff it against the cache.  A key
   whose attribute set empties loses every posting here, which is what
   lets a posting hold the record: the store discards a record only when
   it has no live value entry, and notifies when it does. *)
let refresh t pkey =
  t.updates <- t.updates + 1;
  let old_attrs =
    Option.value (Hashtbl.find_opt t.live pkey) ~default:Sset.empty
  in
  let handle = Store.handle t.base pkey in
  let now_attrs = attrs_of t handle in
  Sset.iter
    (fun a -> if not (Sset.mem a now_attrs) then drop_posting t a pkey)
    old_attrs;
  Option.iter
    (fun h ->
      Sset.iter
        (fun a -> if not (Sset.mem a old_attrs) then add_posting t a pkey h)
        now_attrs)
    handle;
  if Sset.is_empty now_attrs then Hashtbl.remove t.live pkey
  else Hashtbl.replace t.live pkey now_attrs

let attach base ~extract =
  let t =
    {
      base;
      extract;
      postings = Smap.empty;
      live = Hashtbl.create 256;
      updates = 0;
      probes = 0;
      candidates = 0;
    }
  in
  (* Bootstrap from whatever the store already holds (recovery replay,
     checkpoint restore), then subscribe to everything after.  Keys go in
     ascending order, so each bucket's nodes are built in the order probes
     walk them. *)
  Store.iter (fun pkey _ -> refresh t pkey) base;
  t.updates <- 0;
  Store.set_listener base (Some (refresh t));
  t

let detach t = Store.set_listener t.base None
let base t = t.base
let extract t value = t.extract value

(* One bucket's rows visible at [version], descending by key.  A row is
   kept only in the bucket of its visible value's attribute: that value is
   a live entry, so it has a posting there, and every key in range comes
   out of exactly one bucket.  [counted] adds the postings visited to
   {!stats}. *)
let bucket_rows t ~counted attr keys version =
  Smap.fold
    (fun pkey h acc ->
      if counted then t.candidates <- t.candidates + 1;
      match Store.read_handle_le h version with
      | Some v when String.equal (t.extract v) attr -> (pkey, v) :: acc
      | _ -> acc)
    keys []

(* Merge runs that are each descending by key and pairwise disjoint,
   pairwise in rounds: O(rows × log runs). *)
let rec merge_desc = function
  | [] -> []
  | [ run ] -> run
  | runs -> merge_desc (merge_pairs runs)

and merge_pairs = function
  | a :: b :: rest ->
      List.merge (fun (x, _) (y, _) -> String.compare y x) a b
      :: merge_pairs rest
  | runs -> runs

let rows_in t ~counted ~lo ~hi version =
  let rec gather acc seq =
    match seq () with
    | Seq.Cons ((attr, keys), rest) when attr <= hi -> (
        match bucket_rows t ~counted attr keys version with
        | [] -> gather acc rest
        | run -> gather (run :: acc) rest)
    | _ -> acc
  in
  List.rev (merge_desc (gather [] (Smap.to_seq_from lo t.postings)))

let probe t ~lo ~hi version =
  t.probes <- t.probes + 1;
  rows_in t ~counted:true ~lo ~hi version

let full_scan t ~lo ~hi version =
  List.filter
    (fun (_, v) ->
      let a = t.extract v in
      lo <= a && a <= hi)
    (Store.scan_all t.base version)

let check t ~version =
  let violations = ref [] in
  let fail fmt =
    Printf.ksprintf (fun s -> violations := s :: !violations) fmt
  in
  (* Structural: the per-key cache matches a recomputation from the base
     store, covers exactly the base's keys with live value entries, and
     agrees with the postings map in both directions; every posting holds
     the key's current record. *)
  let base_keys = ref [] in
  Store.iter (fun key _ -> base_keys := key :: !base_keys) t.base;
  let seen = Hashtbl.create 64 in
  List.iter
    (fun pkey ->
      Hashtbl.replace seen pkey ();
      let expect = attrs_of t (Store.handle t.base pkey) in
      let got =
        Option.value (Hashtbl.find_opt t.live pkey) ~default:Sset.empty
      in
      if not (Sset.equal expect got) then
        fail "index: key %S caches attrs {%s}, store has {%s}" pkey
          (String.concat "," (Sset.elements got))
          (String.concat "," (Sset.elements expect)))
    !base_keys;
  Hashtbl.iter
    (fun pkey _ ->
      if not (Hashtbl.mem seen pkey) then
        fail "index: key %S cached but absent from the store" pkey)
    t.live;
  Smap.iter
    (fun attr keys ->
      if Smap.is_empty keys then fail "index: empty posting for attr %S" attr;
      Smap.iter
        (fun pkey h ->
          let cached =
            Option.value (Hashtbl.find_opt t.live pkey) ~default:Sset.empty
          in
          if not (Sset.mem attr cached) then
            fail "index: posting %S -> %S not backed by the key cache" attr
              pkey;
          match Store.handle t.base pkey with
          | Some current when current == h -> ()
          | _ ->
              fail "index: posting %S -> %S holds a record the store dropped"
                attr pkey)
        keys)
    t.postings;
  Hashtbl.iter
    (fun pkey attrs ->
      Sset.iter
        (fun attr ->
          let posted =
            Option.value (Smap.find_opt attr t.postings) ~default:Smap.empty
          in
          if not (Smap.mem pkey posted) then
            fail "index: cached attr %S of key %S missing its posting" attr
              pkey)
        attrs)
    t.live;
  (* Observational: a probe over the full attribute space at [version] must
     equal the full ordered scan — the contract every query plan relies
     on. *)
  let indexed =
    match (Smap.min_binding_opt t.postings, Smap.max_binding_opt t.postings) with
    | Some (lo, _), Some (hi, _) -> rows_in t ~counted:false ~lo ~hi version
    | _ -> []
  in
  let full = Store.scan_all t.base version in
  if indexed <> full then
    fail "index: probe at v=%d returns %d rows, full scan %d" version
      (List.length indexed) (List.length full);
  List.rev !violations

let stats t : stats =
  { updates = t.updates; probes = t.probes; candidates = t.candidates }
