module Store = Vstore.Store
module Smap = Map.Make (String)
module Sset = Set.Make (String)

(* The index is a sorted map from extracted attribute to the set of primary
   keys that carry that attribute in ANY live version, plus a per-key cache
   of the attributes its live value entries currently carry.  The version
   dimension stays in the base store: a probe re-resolves every candidate
   through [Store.read_le] at the pinned version, so index entries follow
   the same three-slot visibility discipline as base rows without
   duplicating them.  Maintenance is driven by the store's mutation
   listener ({!Store.set_listener}): every mutation path — update
   execution, moveToFuture, GC, prune, WAL replay, replication apply,
   checkpoint restore — funnels through the store's write/delete/
   copy_forward/remove_version/gc/prune_below operations, so consistency
   holds by construction, not by call-site discipline. *)

type stats = { updates : int; probes : int; candidates : int }

type 'v t = {
  base : 'v Store.t;
  extract : 'v -> string;
  mutable postings : Sset.t Smap.t;
      (* attribute -> primary keys with a live value entry carrying it *)
  live : (string, Sset.t) Hashtbl.t;
      (* primary key -> attributes over its live value entries *)
  mutable updates : int;
  mutable probes : int;
  mutable candidates : int;
}

let add_posting t attr pkey =
  let set =
    Option.value (Smap.find_opt attr t.postings) ~default:Sset.empty
  in
  t.postings <- Smap.add attr (Sset.add pkey set) t.postings

let drop_posting t attr pkey =
  match Smap.find_opt attr t.postings with
  | None -> ()
  | Some set ->
      let set = Sset.remove pkey set in
      t.postings <-
        (if Sset.is_empty set then Smap.remove attr t.postings
         else Smap.add attr set t.postings)

(* Recompute the key's live attribute set from the base store (at most
   three live versions, so O(1) per call) and diff it against the cache. *)
let refresh t pkey =
  t.updates <- t.updates + 1;
  let old_attrs =
    Option.value (Hashtbl.find_opt t.live pkey) ~default:Sset.empty
  in
  let now_attrs =
    List.fold_left
      (fun acc v ->
        match Store.read_exact t.base pkey v with
        | Some value -> Sset.add (t.extract value) acc
        | None -> acc (* tombstone *))
      Sset.empty
      (Store.versions_of t.base pkey)
  in
  Sset.iter
    (fun a -> if not (Sset.mem a now_attrs) then drop_posting t a pkey)
    old_attrs;
  Sset.iter
    (fun a -> if not (Sset.mem a old_attrs) then add_posting t a pkey)
    now_attrs;
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
     checkpoint restore), then subscribe to everything after. *)
  List.iter
    (fun (pkey, _) -> refresh t pkey)
    (Store.snapshot_items (Store.snapshot base));
  t.updates <- 0;
  Store.set_listener base (Some (refresh t));
  t

let detach t = Store.set_listener t.base None
let base t = t.base
let extract t value = t.extract value

(* Candidate primary keys, ascending and distinct: the postings for
   attributes in [lo, hi].  Complete by construction — any key visible at
   any version with an attribute in range has a live entry carrying it,
   hence a posting.  A key with live entries in several buckets of the
   range appears in each of them, hence the final [sort_uniq]. *)
let candidates_in t ~lo ~hi =
  let rec gather acc seq =
    match seq () with
    | Seq.Cons ((attr, keys), rest) when attr <= hi ->
        gather (Sset.fold List.cons keys acc) rest
    | _ -> acc
  in
  List.sort_uniq String.compare (gather [] (Smap.to_seq_from lo t.postings))

let resolve t ~lo ~hi version cands =
  List.filter_map
    (fun pkey ->
      match Store.read_le t.base pkey version with
      | Some v ->
          let a = t.extract v in
          if lo <= a && a <= hi then Some (pkey, v) else None
      | None -> None)
    cands

let probe t ~lo ~hi version =
  let cands = candidates_in t ~lo ~hi in
  t.probes <- t.probes + 1;
  t.candidates <- t.candidates + List.length cands;
  resolve t ~lo ~hi version cands

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
     agrees with the postings map in both directions. *)
  let base_keys = ref [] in
  Store.iter (fun key _ -> base_keys := key :: !base_keys) t.base;
  let seen = Hashtbl.create 64 in
  List.iter
    (fun pkey ->
      Hashtbl.replace seen pkey ();
      let expect =
        List.fold_left
          (fun acc v ->
            match Store.read_exact t.base pkey v with
            | Some value -> Sset.add (t.extract value) acc
            | None -> acc)
          Sset.empty
          (Store.versions_of t.base pkey)
      in
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
    (fun attr set ->
      if Sset.is_empty set then fail "index: empty posting for attr %S" attr;
      Sset.iter
        (fun pkey ->
          let cached =
            Option.value (Hashtbl.find_opt t.live pkey) ~default:Sset.empty
          in
          if not (Sset.mem attr cached) then
            fail "index: posting %S -> %S not backed by the key cache" attr
              pkey)
        set)
    t.postings;
  Hashtbl.iter
    (fun pkey attrs ->
      Sset.iter
        (fun attr ->
          let posted =
            Option.value (Smap.find_opt attr t.postings) ~default:Sset.empty
          in
          if not (Sset.mem pkey posted) then
            fail "index: cached attr %S of key %S missing its posting" attr
              pkey)
        attrs)
    t.live;
  (* Observational: a probe over the full attribute space at [version] must
     equal the full ordered scan — the contract every query plan relies
     on. *)
  let indexed =
    match (Smap.min_binding_opt t.postings, Smap.max_binding_opt t.postings) with
    | Some (lo, _), Some (hi, _) ->
        resolve t ~lo ~hi version (candidates_in t ~lo ~hi)
    | _ -> []
  in
  let full = Store.scan_all t.base version in
  if indexed <> full then
    fail "index: probe at v=%d returns %d rows, full scan %d" version
      (List.length indexed) (List.length full);
  List.rev !violations

let stats t : stats =
  { updates = t.updates; probes = t.probes; candidates = t.candidates }
