module Update = Ava3.Update_exec

type key = int * string

type op_record =
  | Rmw of key * int option * int  (** observed value, written value *)
  | Put of key * int  (** blind write *)
  | Del of key

type txn_record = {
  t_version : int;
  t_finished : float;
  t_commit_at : (int * float) list;  (** per-node local commit times *)
  t_ops : op_record list;
}

type query_record = { q_version : int; q_reads : (key * int option) list }

type history = {
  committed : txn_record list;
  queries : query_record list;
  initial : (key * int) list;
  final_visible : (key * int option) list;
}

let key_name (n, k) = Printf.sprintf "n%d-%s" n k

(* Deterministic injective-ish update function: distinct (salt, old)
   pairs give distinct values, so a lost update changes the final state
   and the replay catches it. *)
let transform ~salt old = ((Option.value old ~default:0 * 31) + salt) mod 100_003

module Recorder = struct
  type op =
    | Rmw of int * string * int
    | Put of int * string * int
    | Del of int * string
    | Begin_at of int
    | Pause of float

  type t = {
    mutable committed : txn_record list;
    mutable queries : query_record list;
    initial : (key * int) list;
  }

  let create initial = { committed = []; queries = []; initial }

  let update t db ~root ops =
    let observed = Queue.create () in
    let uops =
      List.map
        (function
          | Rmw (node, key, salt) ->
              Update.Read_modify_write
                {
                  node;
                  key;
                  f =
                    (fun old ->
                      let v = transform ~salt old in
                      Queue.push (old, v) observed;
                      v);
                }
          | Put (node, key, value) -> Update.Write { node; key; value }
          | Del (node, key) -> Update.Delete { node; key }
          | Begin_at n -> Update.Begin_at n
          | Pause d -> Update.Pause d)
        ops
    in
    match Ava3.Cluster.run_update db ~root ~ops:uops with
    | Update.Committed c ->
        (* RMWs ran in op-list order, so popping the observation queue in
           the same order re-associates observed/written values. *)
        let t_ops =
          List.filter_map
            (function
              | Rmw (n, k, _) ->
                  let old, v = Queue.pop observed in
                  Some (Rmw ((n, k), old, v) : op_record)
              | Put (n, k, v) -> Some (Put ((n, k), v) : op_record)
              | Del (n, k) -> Some (Del (n, k) : op_record)
              | Begin_at _ | Pause _ -> None)
            ops
        in
        t.committed <-
          {
            t_version = c.final_version;
            t_finished = c.finished_at;
            t_commit_at = c.participants;
            t_ops;
          }
          :: t.committed
    | Update.Aborted _ | Update.Root_down _ -> ()

  let add_query t (q : int Ava3.Query_exec.result) =
    t.queries <-
      {
        q_version = q.version;
        q_reads = List.map (fun (n, k, v) -> ((n, k), v)) q.values;
      }
      :: t.queries

  let query t db ~root reads =
    match Ava3.Cluster.run_query db ~root ~reads with
    | q -> add_query t q
    | exception (Net.Network.Node_down _ | Net.Network.Rpc_timeout _) -> ()

  let history t db ~keys =
    let cs = Ava3.Cluster.state db in
    {
      committed = List.rev t.committed;
      queries = List.rev t.queries;
      initial = t.initial;
      final_visible =
        List.map
          (fun ((n, k) as key) ->
            ( key,
              Vstore.Store.read_le
                (Ava3.Node_state.store
                   (Ava3.Cluster.node db (Ava3.Cluster_state.home_site cs n)))
                k max_int ))
          keys;
    }
end

(* Workload shape: 3 nodes, 60 update transactions, 25 queries and 4
   advancement rounds. *)
let nodes = 3
let transactions = 60
let queries = 25
let advancements = 4

let recording_run ?(seed = 101L) () =
  let engine = Sim.Engine.create ~seed ~trace:false () in
  let config =
    { Ava3.Config.default with read_service_time = 0.3; write_service_time = 0.5 }
  in
  let db : int Ava3.Cluster.t = Ava3.Cluster.create ~engine ~config ~nodes () in
  let keys_per_node = 6 in
  let all_keys =
    List.concat_map
      (fun n -> List.init keys_per_node (fun i -> (n, Printf.sprintf "k%d" i)))
      (List.init nodes (fun n -> n))
  in
  let initial = List.mapi (fun i key -> (key, i + 1)) all_keys in
  List.iter
    (fun ((n, _) as key, v) ->
      Ava3.Cluster.load db ~node:n [ (snd key, v) ])
    initial;
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let r = Recorder.create initial in
  let horizon = 400.0 in
  (* Update transactions: a mix of RMWs (observing reads), blind writes
     and deletes. *)
  for t = 1 to transactions do
    let delay = Sim.Rng.float rng horizon in
    let picks =
      List.init
        (1 + Sim.Rng.int rng 3)
        (fun j ->
          let n = Sim.Rng.int rng nodes in
          let k = Printf.sprintf "k%d" (Sim.Rng.int rng keys_per_node) in
          let salt = (t * 100) + j in
          match Sim.Rng.int rng 3 with
          | 0 -> ((n, k), Recorder.Rmw (n, k, salt))
          | 1 -> ((n, k), Recorder.Put (n, k, salt))
          | _ -> ((n, k), Recorder.Del (n, k)))
    in
    (* Repeated keys are dropped: the recorder would handle them, but
       keeping them would change every seed's workload. *)
    let seen = Hashtbl.create 4 in
    let ops =
      List.filter_map
        (fun (key, op) ->
          if Hashtbl.mem seen key then None
          else begin
            Hashtbl.replace seen key ();
            Some op
          end)
        picks
    in
    Sim.Engine.schedule engine ~delay (fun () ->
        Recorder.update r db ~root:(Sim.Rng.int rng nodes) ops)
  done;
  for _ = 1 to queries do
    let delay = Sim.Rng.float rng (horizon +. 50.0) in
    Sim.Engine.schedule engine ~delay (fun () ->
        let reads =
          List.init
            (2 + Sim.Rng.int rng 4)
            (fun _ ->
              let n = Sim.Rng.int rng nodes in
              (n, Printf.sprintf "k%d" (Sim.Rng.int rng keys_per_node)))
        in
        Recorder.query r db ~root:(Sim.Rng.int rng nodes) reads)
  done;
  for a = 1 to advancements do
    Sim.Engine.schedule engine
      ~delay:(float_of_int a *. (horizon /. float_of_int (advancements + 1)))
      (fun () -> ignore (Ava3.Cluster.advance db ~coordinator:(a mod nodes)))
  done;
  Sim.Engine.run engine;
  Recorder.history r db ~keys:all_keys

type verdict = {
  transactions_checked : int;
  queries_checked : int;
  errors : string list;
}

let verify history =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  (* The serial order Theorem 6.2 claims: transactions ordered by commit
     version; within a version, conflicting transactions follow their 2PL
     order, which is visible as the order of their local commits at the
     node holding the contended item.  Build those conflict edges and
     topologically sort (ties broken deterministically by root finish
     time). *)
  let txns = Array.of_list history.committed in
  let n_txns = Array.length txns in
  let key_of_op = function Rmw (k, _, _) -> k | Put (k, _) -> k | Del k -> k in
  let commit_at t node =
    Option.value (List.assoc_opt node t.t_commit_at) ~default:t.t_finished
  in
  (* Group transaction indices by touched key. *)
  let by_key : (key, int list ref) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i t ->
      List.iter
        (fun op ->
          let k = key_of_op op in
          match Hashtbl.find_opt by_key k with
          | Some l -> if not (List.mem i !l) then l := i :: !l
          | None -> Hashtbl.replace by_key k (ref [ i ]))
        t.t_ops)
    txns;
  let succs = Array.make n_txns [] and indeg = Array.make n_txns 0 in
  let add_edge a b =
    if not (List.mem b succs.(a)) then begin
      succs.(a) <- b :: succs.(a);
      indeg.(b) <- indeg.(b) + 1
    end
  in
  Hashtbl.iter
    (fun ((node, _) as _k) l ->
      let chain =
        List.sort
          (fun a b ->
            compare
              (txns.(a).t_version, commit_at txns.(a) node)
              (txns.(b).t_version, commit_at txns.(b) node))
          !l
      in
      let rec link = function
        | a :: (b :: _ as rest) ->
            add_edge a b;
            link rest
        | _ -> ()
      in
      link chain)
    by_key;
  (* Kahn's algorithm with a deterministic priority. *)
  let ready =
    ref
      (List.filter (fun i -> indeg.(i) = 0) (List.init n_txns (fun i -> i)))
  in
  let priority i = (txns.(i).t_version, txns.(i).t_finished, i) in
  let order = ref [] in
  let emitted = ref 0 in
  while !ready <> [] do
    let best =
      List.fold_left
        (fun acc i ->
          match acc with
          | None -> Some i
          | Some j -> if priority i < priority j then Some i else Some j)
        None !ready
    in
    match best with
    | None -> ()
    | Some i ->
        ready := List.filter (fun j -> j <> i) !ready;
        order := txns.(i) :: !order;
        incr emitted;
        List.iter
          (fun j ->
            indeg.(j) <- indeg.(j) - 1;
            if indeg.(j) = 0 then ready := j :: !ready)
          succs.(i)
  done;
  if !emitted <> n_txns then
    fail "conflict graph has a cycle (%d of %d emitted) — not serializable"
      !emitted n_txns;
  let order = List.rev !order in
  let state : (key, int option) Hashtbl.t = Hashtbl.create 64 in
  List.iter (fun (key, v) -> Hashtbl.replace state key (Some v)) history.initial;
  let lookup key = Option.join (Hashtbl.find_opt state key) in
  let snapshot_at = Hashtbl.create 8 in
  (* Replay, remembering the state after each version's transactions. *)
  let remember v =
    Hashtbl.replace snapshot_at v (Hashtbl.copy state)
  in
  let current_version = ref 0 in
  remember (-1);
  List.iter
    (fun t ->
      if t.t_version > !current_version then begin
        (* All versions in between close with the current state. *)
        for v = !current_version to t.t_version - 1 do
          remember v
        done;
        current_version := t.t_version
      end;
      List.iter
        (fun op ->
          match op with
          | Rmw (key, observed, written) ->
              let expect = lookup key in
              if observed <> expect then
                fail "rmw on %s observed %s, serial replay has %s"
                  (key_name key)
                  (match observed with None -> "-" | Some v -> string_of_int v)
                  (match expect with None -> "-" | Some v -> string_of_int v);
              Hashtbl.replace state key (Some written)
          | Put (key, v) -> Hashtbl.replace state key (Some v)
          | Del key -> Hashtbl.replace state key None)
        t.t_ops)
    order;
  for v = !current_version to !current_version + 2 do
    remember v
  done;
  let max_remembered = !current_version + 2 in
  (* Queries read exactly the replayed prefix of their snapshot version. *)
  List.iter
    (fun q ->
      let snap =
        Hashtbl.find snapshot_at (min q.q_version max_remembered)
      in
      List.iter
        (fun (key, got) ->
          let expect = Option.join (Hashtbl.find_opt snap key) in
          if got <> expect then
            fail "query at v%d read %s = %s, serial replay has %s" q.q_version
              (key_name key)
              (match got with None -> "-" | Some v -> string_of_int v)
              (match expect with None -> "-" | Some v -> string_of_int v))
        q.q_reads)
    history.queries;
  (* Final states agree. *)
  List.iter
    (fun (key, visible) ->
      let expect = lookup key in
      if visible <> expect then
        fail "final state of %s is %s, serial replay has %s" (key_name key)
          (match visible with None -> "-" | Some v -> string_of_int v)
          (match expect with None -> "-" | Some v -> string_of_int v))
    history.final_visible;
  {
    transactions_checked = List.length history.committed;
    queries_checked = List.length history.queries;
    errors = List.rev !errors;
  }

let check ?seed () = verify (recording_run ?seed ())

let report () =
  print_endline
    "\n== Theorem 6.2, executable: record histories, replay the claimed \
     serial order ==";
  let verdicts =
    Sim.Pool.map
      (fun seed -> check ~seed:(Int64.of_int seed) ())
      [ 1; 2; 3; 4; 5 ]
  in
  print_string
    (Report.render
       ~header:[ "seed"; "transactions"; "queries"; "verdict" ]
       ~rows:
         (List.mapi
            (fun i v ->
              [
                string_of_int (i + 1);
                string_of_int v.transactions_checked;
                string_of_int v.queries_checked;
                (match v.errors with
                | [] -> "serializable"
                | e :: _ -> "ANOMALY: " ^ e);
              ])
            verdicts));
  if List.exists (fun v -> v.errors <> []) verdicts then exit 1
