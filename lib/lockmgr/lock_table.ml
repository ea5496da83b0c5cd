type mode = Shared | Exclusive

type outcome = [ `Granted | `Deadlock ]

type waiter = {
  w_owner : int;
  w_mode : mode;
  w_resume : outcome -> unit;
  mutable w_live : bool;
}

type lock = {
  mutable holders : (int * mode) list;
      (* invariant: all Shared, or exactly one Exclusive *)
  mutable queue : waiter list; (* FIFO; upgrades are pushed to the front *)
}

type t = {
  table : (string, lock) Hashtbl.t;
  owned : (int, (string, unit) Hashtbl.t) Hashtbl.t;
  peers : t list ref; (* all tables sharing deadlock detection, incl. self *)
  mutable live_waiters : int;
      (* live queued requests in this table; lets the group-wide cycle
         check skip the (at scale, vast) majority of tables with nobody
         waiting instead of folding over every peer's whole key table *)
  mutable waits : int;
  mutable deadlocks : int;
  mutable total_wait_time : float;
}

type group = t list ref

let new_group () : group = ref []

let create ?group () =
  let peers = match group with Some g -> g | None -> ref [] in
  let t =
    {
      table = Hashtbl.create 1024;
      owned = Hashtbl.create 64;
      peers;
      live_waiters = 0;
      waits = 0;
      deadlocks = 0;
      total_wait_time = 0.0;
    }
  in
  peers := t :: !peers;
  t

let get_lock t key =
  match Hashtbl.find_opt t.table key with
  | Some l -> l
  | None ->
      let l = { holders = []; queue = [] } in
      Hashtbl.replace t.table key l;
      l

let note_owned t ~owner ~key =
  let keys =
    match Hashtbl.find_opt t.owned owner with
    | Some s -> s
    | None ->
        let s = Hashtbl.create 8 in
        Hashtbl.replace t.owned owner s;
        s
  in
  Hashtbl.replace keys key ()

let holder_mode lock owner =
  List.fold_left
    (fun acc (o, m) ->
      if o <> owner then acc
      else
        match (acc, m) with
        | Some Exclusive, _ | _, Exclusive -> Some Exclusive
        | _ -> Some Shared)
    None lock.holders

let holds t ~owner ~key =
  match Hashtbl.find_opt t.table key with
  | None -> None
  | Some lock -> holder_mode lock owner

let held_keys t ~owner =
  match Hashtbl.find_opt t.owned owner with
  | None -> []
  | Some s -> Hashtbl.fold (fun k () acc -> k :: acc) s []

(* Can [owner] be granted [mode] given current holders?  An upgrade is
   grantable only when the owner is the sole holder. *)
let compatible lock ~owner ~mode =
  match mode with
  | Shared -> List.for_all (fun (o, m) -> o = owner || m = Shared) lock.holders
  | Exclusive -> List.for_all (fun (o, _) -> o = owner) lock.holders

let add_holder lock ~owner ~mode =
  match mode with
  | Exclusive ->
      (* Sole holder (possibly upgrading): replace all owner entries. *)
      lock.holders <-
        (owner, Exclusive) :: List.filter (fun (o, _) -> o <> owner) lock.holders
  | Shared ->
      if holder_mode lock owner = None then
        lock.holders <- (owner, Shared) :: lock.holders

(* Grant queued requests from the front while compatible. *)
let rec try_grant t lock =
  match lock.queue with
  | [] -> ()
  | w :: rest ->
      if not w.w_live then begin
        lock.queue <- rest;
        try_grant t lock
      end
      else if compatible lock ~owner:w.w_owner ~mode:w.w_mode then begin
        lock.queue <- rest;
        w.w_live <- false;
        t.live_waiters <- t.live_waiters - 1;
        add_holder lock ~owner:w.w_owner ~mode:w.w_mode;
        w.w_resume `Granted;
        try_grant t lock
      end

(* Wait-for edges of [owner] within one table: if it has a live queued
   request on some key, it waits for conflicting holders of that key and for
   conflicting live waiters queued ahead of it. *)
let local_wait_for_edges t owner =
  Hashtbl.fold
    (fun _key lock acc ->
      let rec scan ahead = function
        | [] -> acc
        | w :: _ when w.w_live && w.w_owner = owner ->
            let held =
              List.filter_map
                (fun (o, m) ->
                  if o <> owner && (w.w_mode = Exclusive || m = Exclusive)
                  then Some o
                  else None)
                lock.holders
            in
            let queued =
              List.filter_map
                (fun a ->
                  if
                    a.w_live && a.w_owner <> owner
                    && (w.w_mode = Exclusive || a.w_mode = Exclusive)
                  then Some a.w_owner
                  else None)
                (List.rev ahead)
            in
            held @ queued @ acc
        | w :: rest -> scan (w :: ahead) rest
      in
      scan [] lock.queue)
    t.table []

(* A transaction may wait at any node of the group while holding locks at
   others, so edges are the union over all peer tables.  Only tables with a
   live waiter can contribute an edge — skipping the rest keeps the cycle
   check O(contended tables), not O(cluster size), per DFS node. *)
let wait_for_edges t owner =
  List.concat_map
    (fun peer ->
      if peer.live_waiters = 0 then [] else local_wait_for_edges peer owner)
    !(t.peers)

(* Would granting-by-waiting create a cycle through [start]?  DFS over the
   wait-for graph derived from the current group state. *)
let creates_cycle t ~start =
  let visited = Hashtbl.create 16 in
  let rec dfs owner =
    List.exists
      (fun next ->
        next = start
        ||
        if Hashtbl.mem visited next then false
        else begin
          Hashtbl.replace visited next ();
          dfs next
        end)
      (wait_for_edges t owner)
  in
  dfs start

let is_upgrade lock owner mode =
  mode = Exclusive && holder_mode lock owner = Some Shared

let acquire t ~owner ~key mode =
  let lock = get_lock t key in
  match holder_mode lock owner with
  | Some Exclusive ->
      `Granted (* X subsumes both re-requests *)
  | Some Shared when mode = Shared -> `Granted
  | Some Shared | None ->
      if lock.queue = [] && compatible lock ~owner ~mode then begin
        add_holder lock ~owner ~mode;
        note_owned t ~owner ~key;
        `Granted
      end
      else if
        (* Upgrades skip the queue when the owner is the sole holder. *)
        is_upgrade lock owner mode && compatible lock ~owner ~mode
      then begin
        add_holder lock ~owner ~mode;
        note_owned t ~owner ~key;
        `Granted
      end
      else begin
        t.waits <- t.waits + 1;
        let engine = Sim.Engine.current () in
        let started = Sim.Engine.now engine in
        let result =
          Sim.Engine.suspend (fun resume ->
              let w =
                { w_owner = owner; w_mode = mode; w_resume = resume; w_live = true }
              in
              if is_upgrade lock owner mode then lock.queue <- w :: lock.queue
              else lock.queue <- lock.queue @ [ w ];
              t.live_waiters <- t.live_waiters + 1;
              if creates_cycle t ~start:owner then begin
                (* Deny instead of blocking forever: the requester is the
                   transaction closing the cycle. *)
                w.w_live <- false;
                t.live_waiters <- t.live_waiters - 1;
                t.deadlocks <- t.deadlocks + 1;
                resume `Deadlock
              end)
        in
        t.total_wait_time <-
          t.total_wait_time +. (Sim.Engine.now engine -. started);
        (match result with
        | `Granted -> note_owned t ~owner ~key
        | `Deadlock -> ());
        result
      end

let release_key t ~owner ~key ~only_shared =
  match Hashtbl.find_opt t.table key with
  | None -> ()
  | Some lock ->
      let dropped = ref false in
      lock.holders <-
        List.filter
          (fun (o, m) ->
            let drop = o = owner && ((not only_shared) || m = Shared) in
            if drop then dropped := true;
            not drop)
          lock.holders;
      if !dropped then begin
        (match Hashtbl.find_opt t.owned owner with
        | Some keys when holder_mode lock owner = None -> Hashtbl.remove keys key
        | _ -> ());
        try_grant t lock;
        if lock.holders = [] && lock.queue = [] then Hashtbl.remove t.table key
      end

let release_one t ~owner ~key = release_key t ~owner ~key ~only_shared:false

let release_all t ~owner =
  List.iter
    (fun key -> release_key t ~owner ~key ~only_shared:false)
    (held_keys t ~owner);
  Hashtbl.remove t.owned owner

let release_shared t ~owner =
  List.iter
    (fun key -> release_key t ~owner ~key ~only_shared:true)
    (held_keys t ~owner)

let waiting_requests t =
  Hashtbl.fold
    (fun _ lock acc ->
      acc + List.length (List.filter (fun w -> w.w_live) lock.queue))
    t.table 0

let iter_locked t f =
  Hashtbl.iter
    (fun key lock ->
      if lock.holders <> [] || List.exists (fun w -> w.w_live) lock.queue then
        f key lock.holders
          (List.filter_map
             (fun w -> if w.w_live then Some (w.w_owner, w.w_mode) else None)
             lock.queue))
    t.table

let waits t = t.waits
let deadlocks t = t.deadlocks
let total_wait_time t = t.total_wait_time
