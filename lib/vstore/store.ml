type version = int

exception Version_bound_exceeded of { key : string; versions : version list }

type 'v body = Value of 'v | Tombstone
type 'v entry = { version : version; body : 'v body }

(* AVA3's central claim is "at most three live versions per item", so the
   item representation is three inline slots sorted by version, descending
   (slot 0 = newest).  Reads, writes and copy-forwards on a bounded store
   touch only these mutable fields: no list cells are allocated and no
   polymorphic comparisons run on the hot path.  Stores without a bound
   (the unbounded-MVCC baseline) spill entries older than slot 2 into
   [spill], also descending — the slots always hold the newest three.
   [Tombstone] doubles as the filler body of unused slots ([n] is the
   number of live slots). *)
type 'v item = {
  key : string;
  mutable n : int; (* live slots, 0..3 *)
  mutable v0 : version;
  mutable b0 : 'v body;
  mutable v1 : version;
  mutable b1 : 'v body;
  mutable v2 : version;
  mutable b2 : 'v body;
  mutable spill : 'v entry list; (* entries older than slot 2, descending *)
  mutable mark : int; (* the store's [seq] when a list walk last took it *)
}

module String_set = Set.Make (String)

type 'v t = {
  bound : int option;
  gc_renumber : bool;
  items : (string, 'v item) Hashtbl.t;
  mutable key_order : String_set.t;
      (* ordered key index for range scans, kept in sync with [items] *)
  (* Version index (the structure the paper defers to MPL92 for): for each
     version, the records that gained an entry there, newest first.  A
     record is added when it gains an entry at a version it did not have;
     nothing is removed when it loses one.  Every record with an entry at
     [v] is on [v]'s list, next to stale ones (the entry has gone since, or
     the record was discarded) and repeats (the entry went and came back):
     a walk keeps the records that still have the entry and takes each once
     by stamping its [mark] with a fresh [seq].  Stale handles cost memory
     only, so the lists are rebuilt once [slack] falls below zero. *)
  by_version : (int, 'v item list ref) Hashtbl.t;
  mutable seq : int;
  mutable slack : int; (* additions left before the lists are compacted *)
  mutable high_water : int;
  mutable gc_items_visited : int;
  (* Derived structures (lib/index) register here to observe mutations;
     [None] (the common case) costs one load-and-branch per write. *)
  mutable listener : (string -> unit) option;
}

(* Handles a store keeps beyond its live entries before it compacts. *)
let min_slack = 64

let create ?bound ?(gc_renumber = true) ?(size = 1024) () =
  (match bound with
  | Some b when b < 1 -> invalid_arg "Store.create: bound must be >= 1"
  | _ -> ());
  {
    bound;
    gc_renumber;
    items = Hashtbl.create size;
    key_order = String_set.empty;
    by_version = Hashtbl.create 8;
    seq = 0;
    slack = min_slack;
    high_water = 0;
    gc_items_visited = 0;
    listener = None;
  }

let set_listener t listener = t.listener <- listener

let notify t key =
  match t.listener with None -> () | Some f -> f key

let index_add t version item =
  t.slack <- t.slack - 1;
  match Hashtbl.find t.by_version version with
  | handles -> handles := item :: !handles
  | exception Not_found -> Hashtbl.replace t.by_version version (ref [ item ])

let has_entry item v =
  (item.n > 0 && item.v0 = v)
  || (item.n > 1 && item.v1 = v)
  || (item.n > 2 && item.v2 = v)
  || List.exists (fun e -> e.version = v) item.spill

(* Start a list walk: [take] then accepts each record once. *)
let new_walk t = t.seq <- t.seq + 1

(* A handle from [v]'s list whose record still has an entry at [v] and has
   not been taken yet in this walk. *)
let take t v item =
  has_entry item v && item.mark <> t.seq && (item.mark <- t.seq; true)

(* The records of a version's list that have an entry there, each once. *)
let walk t v handles =
  new_walk t;
  List.filter (take t v) handles

(* Drop every stale and repeated handle, and every list left empty. *)
let compact t =
  let kept = ref 0 in
  Hashtbl.filter_map_inplace
    (fun v handles ->
      match walk t v !handles with
      | [] -> None
      | live ->
          kept := !kept + List.length live;
          handles := live;
          Some handles)
    t.by_version;
  t.slack <- !kept + min_slack

(* Handles go stale only in [remove_version], [gc] and [prune_below], so
   those end by checking the slack.  A compaction that keeps [k] handles
   (each live then) allows [k + min_slack] additions before the next one,
   which pays for its O(handles) walk; in between, the lists hold those
   [k] and the additions since, so about twice the live entries. *)
let maybe_compact t = if t.slack < 0 then compact t

let find_item t key = Hashtbl.find_opt t.items key

(* {2 Slot/list conversions — used by the cold paths (snapshots, iteration,
   bound errors)} *)

let entries_desc item =
  let tail = if item.n > 2 then { version = item.v2; body = item.b2 } :: item.spill else item.spill in
  let tail = if item.n > 1 then { version = item.v1; body = item.b1 } :: tail else tail in
  if item.n > 0 then { version = item.v0; body = item.b0 } :: tail else tail

let live_count item = item.n + List.length item.spill

let versions_of_item item =
  List.rev_map (fun e -> e.version) (entries_desc item)

let exists_in t key v =
  match find_item t key with None -> false | Some item -> has_entry item v

let max_version t key =
  match find_item t key with
  | None -> None
  | Some item -> if item.n = 0 then None else Some item.v0

let versions_of t key =
  match find_item t key with None -> [] | Some item -> versions_of_item item

let value_of = function Value value -> Some value | Tombstone -> None

let rec spill_le spill v =
  match spill with
  | [] -> None
  | e :: rest -> if e.version <= v then value_of e.body else spill_le rest v

type 'v handle = 'v item

let handle = find_item

(* Slots are descending: the first slot with version <= v wins. *)
let read_handle_le item v =
  if item.n > 0 && item.v0 <= v then value_of item.b0
  else if item.n > 1 && item.v1 <= v then value_of item.b1
  else if item.n > 2 && item.v2 <= v then value_of item.b2
  else spill_le item.spill v

let fold_values f acc item =
  let body acc = function Value value -> f acc value | Tombstone -> acc in
  let acc = if item.n > 0 then body acc item.b0 else acc in
  let acc = if item.n > 1 then body acc item.b1 else acc in
  let acc = if item.n > 2 then body acc item.b2 else acc in
  List.fold_left (fun acc e -> body acc e.body) acc item.spill

let read_le t key v =
  match find_item t key with
  | None -> None
  | Some item -> read_handle_le item v

let note_size t item =
  let n = live_count item in
  if n > t.high_water then t.high_water <- n;
  match t.bound with
  | Some b when n > b ->
      raise
        (Version_bound_exceeded
           { key = item.key; versions = versions_of_item item })
  | _ -> ()

(* Insert a new entry at [version] (known absent), keeping slots and spill
   descending.  The common case — a bounded item with a free slot — only
   shifts the inline fields. *)
let insert_new item version body =
  if item.n > 0 && version > item.v0 then begin
    (* Newest: shift everything down one position. *)
    if item.n > 2 then
      item.spill <- { version = item.v2; body = item.b2 } :: item.spill;
    if item.n > 1 then begin
      item.v2 <- item.v1;
      item.b2 <- item.b1
    end;
    item.v1 <- item.v0;
    item.b1 <- item.b0;
    item.v0 <- version;
    item.b0 <- body;
    if item.n < 3 then item.n <- item.n + 1
  end
  else if item.n > 1 && version > item.v1 then begin
    if item.n > 2 then
      item.spill <- { version = item.v2; body = item.b2 } :: item.spill;
    item.v2 <- item.v1;
    item.b2 <- item.b1;
    item.v1 <- version;
    item.b1 <- body;
    if item.n < 3 then item.n <- item.n + 1
  end
  else if item.n > 2 && version > item.v2 then begin
    item.spill <- { version = item.v2; body = item.b2 } :: item.spill;
    item.v2 <- version;
    item.b2 <- body
  end
  else if item.n < 3 then begin
    (* Free slot at the tail. *)
    (match item.n with
    | 0 ->
        item.v0 <- version;
        item.b0 <- body
    | 1 ->
        item.v1 <- version;
        item.b1 <- body
    | _ ->
        item.v2 <- version;
        item.b2 <- body);
    item.n <- item.n + 1
  end
  else begin
    (* Older than every slot of a full item: sorted insert into the
       spill (unbounded stores, or the entry that triggers the bound
       check right after). *)
    let rec insert = function
      | [] -> [ { version; body } ]
      | e :: rest when e.version < version -> { version; body } :: e :: rest
      | e :: rest -> e :: insert rest
    in
    item.spill <- insert item.spill
  end

(* Insert or replace the entry for [version]. *)
let put_entry t item version body =
  if item.n > 0 && item.v0 = version then item.b0 <- body
  else if item.n > 1 && item.v1 = version then item.b1 <- body
  else if item.n > 2 && item.v2 = version then item.b2 <- body
  else if List.exists (fun e -> e.version = version) item.spill then
    item.spill <-
      List.map
        (fun e -> if e.version = version then { version; body } else e)
        item.spill
  else begin
    insert_new item version body;
    index_add t version item
  end;
  note_size t item

let get_or_create_item t key =
  match find_item t key with
  | Some item -> item
  | None ->
      let item =
        {
          key;
          n = 0;
          v0 = 0;
          b0 = Tombstone;
          v1 = 0;
          b1 = Tombstone;
          v2 = 0;
          b2 = Tombstone;
          spill = [];
          mark = 0;
        }
      in
      Hashtbl.replace t.items key item;
      t.key_order <- String_set.add key t.key_order;
      item

(* Only empty items and lone tombstones are removed, so the record holds
   no value: emptying it makes every handle to it stale. *)
let remove_item t item =
  Hashtbl.remove t.items item.key;
  t.key_order <- String_set.remove item.key t.key_order;
  item.n <- 0

(* [note_size] inside [put_entry] may raise [Version_bound_exceeded] after
   the entry is already in place, so on the listener path the notification
   must still fire — otherwise a derived index would silently diverge from
   the store it mirrors. *)
let put_entry_notified t item version body =
  match t.listener with
  | None -> put_entry t item version body
  | Some f ->
      Fun.protect
        ~finally:(fun () -> f item.key)
        (fun () -> put_entry t item version body)

let write t key v value =
  put_entry_notified t (get_or_create_item t key) v (Value value)

let find_body item v =
  if item.n > 0 && item.v0 = v then Some item.b0
  else if item.n > 1 && item.v1 = v then Some item.b1
  else if item.n > 2 && item.v2 = v then Some item.b2
  else
    match List.find_opt (fun e -> e.version = v) item.spill with
    | Some e -> Some e.body
    | None -> None

let read_exact t key v =
  match Option.bind (find_item t key) (fun item -> find_body item v) with
  | Some body -> value_of body
  | None -> None

let copy_forward t key ~src ~dst =
  match find_item t key with
  | None -> raise Not_found
  | Some item -> (
      match find_body item src with
      | None -> raise Not_found
      | Some body -> put_entry_notified t item dst body)

(* The tombstone is retained even when it is the item's only entry: an
   uncommitted transaction may still hold an undo image or need to copy the
   entry forward in moveToFuture.  The paper removes fully-deleted items
   when their earlier versions are garbage-collected, which is what {!gc}
   does. *)
let delete t key v =
  put_entry_notified t (get_or_create_item t key) v Tombstone

(* Slot 2 was vacated: refill it from the spill, or shrink by one. *)
let refill_slot2 item =
  match item.spill with
  | e :: rest ->
      item.v2 <- e.version;
      item.b2 <- e.body;
      item.spill <- rest
  | [] ->
      item.b2 <- Tombstone;
      item.n <- item.n - 1

let remove_version t key v =
  match find_item t key with
  | None -> ()
  | Some item ->
      (* Shift the newer slots up over the removed one. *)
      if item.n > 0 && item.v0 = v then begin
        item.v0 <- item.v1;
        item.b0 <- item.b1;
        item.v1 <- item.v2;
        item.b1 <- item.b2;
        refill_slot2 item
      end
      else if item.n > 1 && item.v1 = v then begin
        item.v1 <- item.v2;
        item.b1 <- item.b2;
        refill_slot2 item
      end
      else if item.n > 2 && item.v2 = v then refill_slot2 item
      else item.spill <- List.filter (fun e -> e.version <> v) item.spill;
      if item.n = 0 then remove_item t item;
      notify t key;
      maybe_compact t

(* {2 Garbage collection — decided and done on the slots} *)

let rec spill_count_le spill v acc =
  match spill with
  | [] -> acc
  | e :: rest -> spill_count_le rest v (if e.version <= v then acc + 1 else acc)

(* Number of live entries with version <= [v]. *)
let count_le item v =
  (if item.n > 0 && item.v0 <= v then 1 else 0)
  + (if item.n > 1 && item.v1 <= v then 1 else 0)
  + (if item.n > 2 && item.v2 <= v then 1 else 0)
  + spill_count_le item.spill v 0

(* An item with no entry, or whose only entry is a tombstone, is removed
   (paper: once all earlier versions are gone, the deleted item itself may
   be removed) — even when the edit keeps its entries as they are. *)
let removable item =
  match (item.n, item.spill, item.b0) with
  | 0, _, _ | 1, [], Tombstone -> true
  | _ -> false

(* The one per-item edit of {!gc} and {!prune_below}: keep the item's
   [keep] newest entries — a suffix truncation of the descending slots and
   spill — and, with [renumber], move the oldest kept one to that version
   (the caller knows it stays the oldest).  The item is then removed if
   removable, and the listener told.  Callers only come here when the live
   entries change or the item is removable. *)
let edit t item keep ?renumber () =
  if keep <= 3 then begin
    item.spill <- [];
    if keep < 3 then item.b2 <- Tombstone;
    if keep < 2 then item.b1 <- Tombstone;
    if keep < 1 then item.b0 <- Tombstone;
    item.n <- min keep item.n
  end
  else item.spill <- List.filteri (fun i _ -> i < keep - 3) item.spill;
  Option.iter
    (fun v ->
      (match keep - 1 with
      | 0 -> item.v0 <- v
      | 1 -> item.v1 <- v
      | 2 -> item.v2 <- v
      | p ->
          item.spill <-
            List.mapi
              (fun i e -> if i = p - 3 then { e with version = v } else e)
              item.spill);
      index_add t v item)
    renumber;
  if removable item then remove_item t item;
  notify t item.key

let gc t ~collect ~query =
  let process item =
    t.gc_items_visited <- t.gc_items_visited + 1;
    (* A reader at [query] resolves to the newest entry at or below it; the
       entries at or below [collect] are garbage iff such an entry exists
       strictly above [collect].  Checking for an incarnation at exactly
       [query] is not enough: when [query] has skipped versions (a lagging
       collector catching up), an entry strictly between [collect] and
       [query] protects the item, and renumbering a stale entry up to
       [query] would shadow it.  Protected items and the renumbering rule
       drop or move every entry at or below [collect]; the in-place rule
       keeps the newest one, so it changes the item only when there are
       two or more. *)
    let below = count_le item collect in
    let above = live_count item - below in
    let protected = count_le item query > below in
    let keeps = if protected || t.gc_renumber then 0 else 1 in
    if below > keeps || removable item then
      if protected || below = 0 then edit t item above ()
      else if t.gc_renumber then
        (* Paper rule: no incarnation at [query] — renumber the newest
           entry at or below [collect] so readers of [query] still find
           the item.  Nothing lies in (collect, query], so it stays the
           oldest kept entry. *)
        edit t item (above + 1) ~renumber:query ()
      else
        (* In-place rule: keep the newest entry <= collect (still the one
           readers of [query] resolve to) and drop any older ones. *)
        edit t item (above + 1) ()
  in
  (* The version index bounds the scan.  Under the paper's renumbering rule
     every item with an entry at or below [collect] is a candidate (each
     untouched item gets renumbered every round), and none keeps such an
     entry, so those lists are taken out of the index as they are walked.
     Under the in-place rule, steady state guarantees at most one entry
     below [collect] per item, so only items actually written in [collect]
     or [query] need work: those two lists are looked up directly, and
     stay, since their survivors keep their entries there. *)
  let lists =
    if t.gc_renumber then begin
      let taken = ref [] in
      Hashtbl.filter_map_inplace
        (fun v handles ->
          if v <= collect then begin
            taken := (v, !handles) :: !taken;
            None
          end
          else Some handles)
        t.by_version;
      !taken
    end
    else
      List.filter_map
        (fun v ->
          Option.map (fun handles -> (v, !handles))
            (Hashtbl.find_opt t.by_version v))
        (if query = collect then [ collect ] else [ collect; query ])
  in
  new_walk t;
  List.iter
    (fun (v, handles) ->
      List.iter (fun item -> if take t v item then process item) handles)
    lists;
  maybe_compact t

(* Keeping the newest entry at or below [keep] and everything newer changes
   the item only when two or more entries lie at or below [keep]; the first
   pass only reads, so the items it picks can then be edited freely. *)
let prune_below t ~keep =
  Hashtbl.fold
    (fun _ item acc ->
      if count_le item keep > 1 || removable item then item :: acc else acc)
    t.items []
  |> List.iter (fun item ->
         let below = count_le item keep in
         edit t item (live_count item - below + min below 1) ());
  maybe_compact t

let snapshot t =
  String_set.fold
    (fun key acc ->
      let entries =
        List.rev_map
          (fun e -> (e.version, value_of e.body))
          (entries_desc (Hashtbl.find t.items key))
      in
      (key, entries) :: acc)
    t.key_order []
  |> List.rev

let restore ?bound ?gc_renumber snap =
  let t = create ?bound ?gc_renumber () in
  List.iter
    (fun (key, entries) ->
      List.iter
        (fun (v, value) ->
          match value with
          | Some value -> write t key v value
          | None -> delete t key v)
        entries)
    snap;
  t

(* Range scan at a version: keys in [lo, hi] (inclusive), ascending, with
   their value as of [version]; deleted/absent-as-of-version keys are
   skipped. *)
let range t ~lo ~hi version =
  if hi < lo then []
  else begin
    (* Split twice to isolate [lo, hi]. *)
    let _, lo_present, ge_lo = String_set.split lo t.key_order in
    let le_hi, hi_present, _ = String_set.split hi ge_lo in
    let keys =
      (if lo_present then [ lo ] else [])
      @ String_set.elements le_hi
      @ if hi_present && hi <> lo then [ hi ] else []
    in
    List.filter_map
      (fun key ->
        match read_le t key version with
        | Some value -> Some (key, value)
        | None -> None)
      keys
  end

(* Full ordered scan at a version — the reference plan an index probe must
   match byte-for-byte (lib/index).  O(items) by construction. *)
let scan_all t version =
  String_set.fold
    (fun key acc ->
      match read_le t key version with
      | Some value -> (key, value) :: acc
      | None -> acc)
    t.key_order []
  |> List.rev

let item_count t = Hashtbl.length t.items

let iter f t =
  String_set.iter
    (fun key ->
      let summary =
        List.rev_map
          (fun e ->
            (e.version, match e.body with Value _ -> `Value | Tombstone -> `Tombstone))
          (entries_desc (Hashtbl.find t.items key))
      in
      f key summary)
    t.key_order

let live_versions t key =
  match find_item t key with None -> 0 | Some item -> live_count item

let max_live_versions_now t =
  Hashtbl.fold (fun _ item acc -> max acc (live_count item)) t.items 0

let high_water_versions t = t.high_water
let gc_items_visited t = t.gc_items_visited

let items_in_version t v =
  match Hashtbl.find_opt t.by_version v with
  | None -> 0
  | Some handles -> List.length (walk t v !handles)

let version_histogram t =
  let tbl = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ item ->
      let k = live_count item in
      let cur = Option.value (Hashtbl.find_opt tbl k) ~default:0 in
      Hashtbl.replace tbl k (cur + 1))
    t.items;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
