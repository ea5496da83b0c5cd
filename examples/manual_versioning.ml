(* Manual versioning vs AVA3 — the paper's §1.1 motivation.

   The status quo the paper describes: the data lives in two copies, one for
   operations support and one for read-only customer queries; periodically
   the accumulated updates are flushed to the read-only copy, and *access to
   the read-only copy is blocked while the flush runs*.

   This example implements that manual scheme directly (two stores + a
   blocking flush) and runs the same update/query workload against it and
   against AVA3.  It reports what the paper promises AVA3 removes: the
   query-visible blocked time, without giving up freshness (the flush period
   and the advancement period are the same).

   Run with: dune exec examples/manual_versioning.exe *)

let duration = 3000.0
let flush_period = 200.0
let n_keys = 200
let key i = Printf.sprintf "k%d" (i mod n_keys)

(* --- The manual scheme: one node, two copies, blocking flush. --- *)

module Manual = struct
  type t = {
    engine : Sim.Engine.t;
    ops_copy : (string, int) Hashtbl.t;  (** operations support copy *)
    read_copy : (string, int) Hashtbl.t;  (** customer query copy *)
    mutable flushing : bool;
    flush_done : Sim.Condition.t;
    mutable blocked_queries : int;
    mutable blocked_time : float;
    mutable flushes : int;
    per_item_flush_cost : float;
  }

  let create ~engine =
    {
      engine;
      ops_copy = Hashtbl.create 256;
      read_copy = Hashtbl.create 256;
      flushing = false;
      flush_done = Sim.Condition.create ();
      blocked_queries = 0;
      blocked_time = 0.0;
      flushes = 0;
      per_item_flush_cost = 0.05;
    }

  let update t k v = Hashtbl.replace t.ops_copy k v

  (* Queries read the read-only copy — but must wait out a running flush. *)
  let query t k =
    if t.flushing then begin
      let t0 = Sim.Engine.now t.engine in
      t.blocked_queries <- t.blocked_queries + 1;
      Sim.Condition.await_until t.flush_done ~pred:(fun () -> not t.flushing);
      t.blocked_time <- t.blocked_time +. (Sim.Engine.now t.engine -. t0)
    end;
    Hashtbl.find_opt t.read_copy k

  let flush t =
    t.flushing <- true;
    t.flushes <- t.flushes + 1;
    (* Copy every accumulated update; queries stay blocked throughout. *)
    let items = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.ops_copy [] in
    Sim.Engine.sleep (float_of_int (List.length items) *. t.per_item_flush_cost);
    List.iter (fun (k, v) -> Hashtbl.replace t.read_copy k v) items;
    t.flushing <- false;
    Sim.Condition.broadcast t.flush_done
end

let () =
  (* ---- Manual scheme ---- *)
  let engine = Sim.Engine.create ~seed:88L ~trace:false () in
  let m = Manual.create ~engine in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  for i = 0 to n_keys - 1 do
    Hashtbl.replace m.Manual.read_copy (key i) 0;
    Hashtbl.replace m.Manual.ops_copy (key i) 0
  done;
  let queries = ref 0 in
  let rec updates at =
    if at < duration then begin
      Sim.Engine.schedule engine ~delay:at (fun () ->
          Manual.update m (key (Sim.Rng.int rng n_keys)) (Sim.Rng.int rng 1000));
      updates (at +. Sim.Rng.exponential rng ~mean:2.0)
    end
  in
  updates 1.0;
  let rec qs at =
    if at < duration then begin
      Sim.Engine.schedule engine ~delay:at (fun () ->
          ignore (Manual.query m (key (Sim.Rng.int rng n_keys)));
          incr queries);
      qs (at +. Sim.Rng.exponential rng ~mean:4.0)
    end
  in
  qs 2.0;
  let rec flushes at =
    if at < duration then begin
      Sim.Engine.schedule engine ~delay:at (fun () -> Manual.flush m);
      flushes (at +. flush_period)
    end
  in
  flushes flush_period;
  Sim.Engine.run engine;
  Printf.printf "manual two-copy versioning (flush every %.0f):\n" flush_period;
  Printf.printf "  flushes: %d; queries: %d\n" m.Manual.flushes !queries;
  Printf.printf "  queries blocked by flushes: %d (total blocked time %.1f)\n\n"
    m.Manual.blocked_queries m.Manual.blocked_time;

  (* ---- AVA3, same workload shape ---- *)
  let engine2 = Sim.Engine.create ~seed:88L ~trace:false () in
  let db : int Ava3.Cluster.t = Ava3.Cluster.create ~engine:engine2 ~nodes:1 () in
  Ava3.Cluster.load db ~node:0 (List.init n_keys (fun i -> (key i, 0)));
  Ava3.Cluster.start_periodic_advancement db ~coordinator:0 ~period:flush_period
    ~until:duration;
  let rng2 = Sim.Rng.split (Sim.Engine.rng engine2) in
  let session = Session.create db ~seed:88L in
  let query_latency = Workload.Histogram.create () in
  let rec updates2 at =
    if at < duration then begin
      Sim.Engine.schedule engine2 ~delay:at (fun () ->
          let k, v = (key (Sim.Rng.int rng2 n_keys), Sim.Rng.int rng2 1000) in
          ignore
            (Session.txn session (fun c -> Session.write c ~node:0 k v)
              : (int, unit) Session.outcome));
      updates2 (at +. Sim.Rng.exponential rng2 ~mean:2.0)
    end
  in
  updates2 1.0;
  let queries2 = ref 0 in
  let rec qs2 at =
    if at < duration then begin
      Sim.Engine.schedule engine2 ~delay:at (fun () ->
          let q =
            Ava3.Cluster.run_query db ~root:0
              ~reads:[ (0, key (Sim.Rng.int rng2 n_keys)) ]
          in
          Workload.Histogram.add query_latency
            (q.Ava3.Query_exec.finished_at -. q.Ava3.Query_exec.started_at);
          incr queries2);
      qs2 (at +. Sim.Rng.exponential rng2 ~mean:4.0)
    end
  in
  qs2 2.0;
  Sim.Engine.run engine2;
  let stats = Ava3.Cluster.stats db in
  Printf.printf "ava3 (advancement every %.0f):\n" flush_period;
  Printf.printf "  advancements: %d; queries: %d\n" stats.Ava3.Cluster.advancements
    !queries2;
  Printf.printf "  query latency: %s\n" (Workload.Histogram.summary query_latency);
  Printf.printf
    "  queries blocked by version management: 0 — advancement is asynchronous\n";
  Printf.printf "  space: at most %d versions per item (vs 2 full copies)\n"
    stats.Ava3.Cluster.max_versions_ever
