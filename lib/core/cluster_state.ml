type relay = {
  r_root : int;
  r_ver : int;
  r_kind : [ `U | `Q ];
  mutable r_sites : int array;
  r_nparts : int;
  r_pos : int;
  r_child_acks : bool array;
  mutable r_self_done : bool;
  mutable r_acked : bool;
}

type coord = {
  c_newu : int;
  c_started : float;
  mutable c_phase1_done : float;
  mutable c_abandoned : bool;
  mutable c_round : relay;
}

type 'v backup = {
  b_part : int;
  b_site : int;
  b_cursor : Wal.Ship.t;
  mutable b_insync : bool;
}

type 'v repl = {
  nparts : int;
  primary_of : int array;
  part_of : int array;
  mutable backups_of : 'v backup array array;
  ship_epoch : int array;
  site_epoch : int array;
  mutable rr : int;
  repl_changed : Sim.Condition.t array;
}

type 'v t = {
  engine : Sim.Engine.t;
  config : Config.t;
  net : 'v Messages.t Net.Network.t;
  metrics : Sim.Metrics.t;
  lock_group : Lockmgr.Lock_table.group;
  mutable nodes : 'v Node_state.t array;
  coords : coord option array;
  relays : relay list array;
  frozen_at : (int, float) Hashtbl.t;
  state_changed : Sim.Condition.t;
  repl : 'v repl;
  index_extract : ('v -> string) option;
}

let backup_site ~nparts ~replicas ~part ~j = nparts + (part * replicas) + j

let create ~engine ~config ~nodes ?(latency = Net.Latency.Constant 1.0)
    ?index_extract () =
  if nodes <= 0 then invalid_arg "Cluster_state.create: need nodes >= 1";
  let replicas = config.Config.replicas in
  (* [nodes] counts partitions; each partition gets 1 + replicas sites.
     Site layout: partitions first (site p is partition p's initial
     primary), then backup j of partition p at
     [nodes + p * replicas + j].  With replicas = 0 every site is its
     own partition's primary, with no backups. *)
  let sites = nodes * (1 + replicas) in
  (* One shared deadlock-detection group: transactions hold locks on several
     nodes, so cycles span lock tables. *)
  let lock_group = Lockmgr.Lock_table.new_group () in
  let metrics = Sim.Metrics.create ~nodes:sites in
  let make_node i =
    Node_state.create ~engine ~node_id:i ~config ~lock_group ~metrics ()
  in
  let repl =
    {
      nparts = nodes;
      primary_of = Array.init nodes (fun p -> p);
      part_of =
        Array.init sites (fun s ->
            if s < nodes then s else (s - nodes) / replicas);
      backups_of =
        Array.init nodes (fun p ->
            Array.init replicas (fun j ->
                {
                  b_part = p;
                  b_site = backup_site ~nparts:nodes ~replicas ~part:p ~j;
                  b_cursor = Wal.Ship.create ();
                  b_insync = true;
                }));
      ship_epoch = Array.make nodes 0;
      site_epoch = Array.make sites 0;
      rr = 0;
      repl_changed = Array.init nodes (fun _ -> Sim.Condition.create ());
    }
  in
  let t =
    {
      engine;
      config;
      lock_group;
      net =
        Net.Network.create ~engine ~nodes:sites ~latency
          ~send_occupancy:config.Config.send_occupancy
          ~call_timeout:config.Config.rpc_timeout
          ~batch_window:config.Config.rpc_batch_window ~metrics ();
      metrics;
      nodes = Array.init sites make_node;
      coords = Array.make sites None;
      relays = Array.make sites [];
      frozen_at = Hashtbl.create 16;
      state_changed = Sim.Condition.create ();
      repl;
      index_extract;
    }
  in
  (* Version 0 (the initial data) is stable from the start. *)
  Hashtbl.replace t.frozen_at 0 0.0;
  (match index_extract with
  | Some extract ->
      Array.iter (fun nd -> Node_state.attach_index nd ~extract) t.nodes
  | None -> ());
  t

(* Re-attach the configured secondary index on a node rebuilt by recovery
   or failover — the index bootstraps from the replayed store contents. *)
let attach_index_if_configured t nd =
  match t.index_extract with
  | Some extract -> Node_state.attach_index nd ~extract
  | None -> ()

let node t i =
  if i < 0 || i >= Array.length t.nodes then
    invalid_arg "Cluster_state.node: no such node";
  t.nodes.(i)

let node_count t = Array.length t.nodes
let nparts t = t.repl.nparts

let primary_site t p =
  if p < 0 || p >= t.repl.nparts then
    invalid_arg "Cluster_state.primary_site: no such partition";
  t.repl.primary_of.(p)

let primary t p = node t (primary_site t p)

let part_of_site t s =
  if s < 0 || s >= Array.length t.repl.part_of then
    invalid_arg "Cluster_state.part_of_site: no such site";
  t.repl.part_of.(s)

let is_primary_site t s = t.repl.primary_of.(part_of_site t s) = s

(* Callers of the execution APIs keep addressing partitions; a partition
   id resolves to its current primary site (the only site that accepts
   updates and query pins).  Ids past the partition range pass through,
   so code that already computed a site can reuse the same entry points. *)
let home_site t n = if n < t.repl.nparts then t.repl.primary_of.(n) else n

let resolve_plan t ~who ~node ~rebuild plan =
  let seen = Hashtbl.create 8 in
  let rec go p =
    let at, children = node p in
    let at = home_site t at in
    if Hashtbl.mem seen at then
      invalid_arg (who ^ ": plan visits a node twice");
    Hashtbl.replace seen at ();
    rebuild p at (List.map go children)
  in
  go plan

let backups t p = t.repl.backups_of.(p)

let backup_at t s =
  let p = part_of_site t s in
  Array.to_seq t.repl.backups_of.(p) |> Seq.find (fun b -> b.b_site = s)

let synced t nd =
  let s = Node_state.id nd in
  Node_state.alive nd
  && (is_primary_site t s
     || match backup_at t s with Some b -> b.b_insync | None -> false)

let note_repl_change t p = Sim.Condition.broadcast t.repl.repl_changed.(p)

let note t event =
  Sim.Metrics.record t.metrics event;
  Sim.Engine.emit t.engine event

let now t = Sim.Engine.now t.engine

let note_version_change t = Sim.Condition.broadcast t.state_changed

let gc_lag t = if t.config.Config.retain_extra_version then 1 else 0

let catch_up_gc t nd ~target =
  while Node_state.alive nd && Node_state.g nd < target do
    Node_state.collect_garbage nd ~newg:(Node_state.g nd + 1);
    note_version_change t
  done

let raise_u t nd v =
  catch_up_gc t nd ~target:(v - 3 - gc_lag t);
  if Node_state.u nd < v then begin
    Node_state.set_u nd v;
    note_version_change t
  end

let freeze_version t version =
  if not (Hashtbl.mem t.frozen_at version) then
    Hashtbl.replace t.frozen_at version (Sim.Engine.now t.engine)

let staleness_of t ~version ~at =
  match Hashtbl.find_opt t.frozen_at version with
  | None -> None
  | Some frozen -> Some (at -. frozen)
