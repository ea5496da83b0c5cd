type node = {
  store : (string, int) Hashtbl.t;  (** committed values *)
  pins : (string, int ref) Hashtbl.t;  (** active query readers per item *)
  pins_zero : Sim.Condition.t;
}

type t = { locking : node Common.locking; mutable commit_delay : float }

let name = "two-version"

let create ~engine ~nodes () =
  {
    locking =
      Common.locking ~engine ~nodes (fun () ->
          {
            store = Hashtbl.create 256;
            pins = Hashtbl.create 64;
            pins_zero = Sim.Condition.create ();
          });
    commit_delay = 0.0;
  }

let node t n = t.locking.Common.stores.(n)

let load t ~node:n items =
  List.iter (fun (k, v) -> Hashtbl.replace (node t n).store k v) items

let node_count t = Array.length t.locking.stores

let pin nd key =
  let c =
    match Hashtbl.find_opt nd.pins key with
    | Some c -> c
    | None ->
        let c = ref 0 in
        Hashtbl.replace nd.pins key c;
        c
  in
  incr c

let unpin nd key =
  match Hashtbl.find_opt nd.pins key with
  | None -> ()
  | Some c ->
      decr c;
      if !c <= 0 then begin
        Hashtbl.remove nd.pins key;
        Sim.Condition.broadcast nd.pins_zero
      end

let await_unpinned nd key =
  Sim.Condition.await_until nd.pins_zero ~pred:(fun () ->
      not (Hashtbl.mem nd.pins key))

(* The before-value stays in [store] until commit; the buffered write is
   the second, uncommitted version.  Before installing it, the commit
   waits for queries still reading the before-value — the BHR80
   interference — and [commit_delay] sums the whole commit's span. *)
let submit_update t ~root ~ops =
  let wait_start = ref 0.0 in
  let install () =
    wait_start := Sim.Engine.now t.locking.engine;
    fun ~node:n key value ->
      let nd = node t n in
      await_unpinned nd key;
      Hashtbl.replace nd.store key value
  in
  let outcome = Common.update t.locking ~root ~ops ~install in
  if outcome = Workload.Db_intf.Committed then
    t.commit_delay <-
      t.commit_delay +. (Sim.Engine.now t.locking.engine -. !wait_start);
  outcome

(* Queries take no locks: they read committed values and pin what they read
   until they finish, delaying conflicting writer commits. *)
let submit_query t ~root ~reads =
  let t0 = Sim.Engine.now t.locking.engine in
  let pinned = ref [] in
  let read_one (n, key) =
    Net.Network.run_at t.locking.net ~src:root ~dst:n (fun () ->
        pin (node t n) key;
        pinned := (n, key) :: !pinned;
        Sim.Engine.sleep Common.read_time;
        ignore (Hashtbl.find_opt (node t n).store key))
  in
  List.iter read_one reads;
  List.iter (fun (n, key) -> unpin (node t n) key) !pinned;
  Some
    {
      Workload.Db_intf.q_latency = Sim.Engine.now t.locking.engine -. t0;
      q_staleness = Some 0.0;
    }

let max_versions_ever _ = 2

let extra_stats t =
  ("commit_delay", t.commit_delay) :: Common.lock_stats t.locking

let metrics_snapshot _ = None

(* No secondary index in this baseline: the driver's scan/join streams
   count as failed queries here. *)
let submit_scan _ ~root:_ ~range:_ = None
let submit_join _ ~root:_ ~build:_ ~probe:_ = None
