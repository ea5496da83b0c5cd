module Update = Ava3.Update_exec
module Cluster = Ava3.Cluster
module Driver = Workload.Driver
module Histogram = Workload.Histogram

(* ------------------------------------------------------------------ *)
(* Run specs                                                           *)
(* ------------------------------------------------------------------ *)

(* The database under test: its {!Workload.Db_intf.DB} face for generated
   workloads, its loader, and the AVA3 cluster underneath when there is
   one (the lock-based baselines have none). *)
type ops = Ops : (module Workload.Db_intf.DB with type t = 'd) * 'd -> ops

type db = {
  ops : ops;
  load : node:int -> (string * int) list -> unit;
  cluster : int Cluster.t option;
}

type spec = {
  seed : int64;
  nodes : int;  (** partitions *)
  config : Ava3.Config.t;
  latency : Net.Latency.t option;
  system : spec -> Sim.Engine.t -> Sim.Rng.t Lazy.t -> db;
      (** builds the database; the lazy client stream is split off the
          engine's root after the network's unless this forces it first *)
  keys : int;  (** keys per node, named as {!Workload.Keyspace} names them *)
  theta : float;  (** Zipf skew of the keyspace generated workloads draw *)
  load : load;
  advancement : advancement;
  nemesis : (ctx -> Net.Nemesis.plan) option;
  probes : ctx -> float list;  (** instants of the invariant probes *)
  clients : client list;
  horizon : float;
      (** span of the workload; periodic advancement stops there and the
          run is cut at ten horizons, so a livelock shows as [stalled] *)
}

and load =
  | Keys  (** [keys] items per node, valued 0 *)
  | Items of (int -> (string * int) list)

and advancement =
  | Manual
  | Periodic of { coordinator : int; period : float }
      (** a round every [period] until the horizon, back to back when 0
          (§8 limiting mode); a baseline advances itself *)
  | Beats of float
      (** every period, the first partition whose home site is alive
          initiates a round (or re-initiates a stalled one, §3.2) *)

and client =
  | Mix of Driver.spec  (** the generated open-loop mix; runs the engine *)
  | Updates of { every : float; max_ops : int }
      (** one update of 1..[max_ops] writes every [every] time units,
          retried by [Session.txn] under the spec's [config] *)
  | Custom of (ctx -> unit)

and ctx = {
  spec : spec;
  engine : Sim.Engine.t;
  db : db;
  rng : Sim.Rng.t;
  keyspace : Workload.Keyspace.t Lazy.t;
  counts : (string, float) Hashtbl.t;
  hists : (string, Histogram.t) Hashtbl.t;
  mutable report : Driver.report option;
  mutable finish : (unit -> unit) list;
}

let ava3_with ?index ?scan_plan s engine =
  let d =
    Baseline.Ava3_db.create ~engine ~config:s.config ?latency:s.latency
      ~advancement_period:0.0 ?index ?scan_plan ~nodes:s.nodes ()
  in
  {
    ops = Ops ((module Baseline.Ava3_db), d);
    load = Baseline.Ava3_db.load d;
    cluster = Some (Baseline.Ava3_db.cluster d);
  }

let ava3 s engine _ = ava3_with s engine

let baseline (type d) (module D : Workload.Db_intf.DB with type t = d)
    (create : Sim.Engine.t -> nodes:int -> d) load s engine _ =
  let d = create engine ~nodes:s.nodes in
  { ops = Ops ((module D), d); load = load d; cluster = None }

let spec ~seed ~nodes =
  {
    seed;
    nodes;
    config = Ava3.Config.default;
    latency = None;
    system = ava3;
    keys = 0;
    theta = 0.0;
    load = Keys;
    advancement = Manual;
    nemesis = None;
    probes = (fun _ -> []);
    clients = [];
    horizon = infinity;
  }

(* A generated-mix run over [keys] Zipf-[theta] keys per node, advancing
   every [period] from node 0 until the mix ends. *)
let mixed ~seed ?(nodes = 3) ?(config = Ava3.Config.default) ~keys ~theta
    ~period (mix : Driver.spec) =
  {
    (spec ~seed ~nodes) with
    config;
    keys;
    theta;
    advancement = Periodic { coordinator = 0; period };
    clients = [ Mix mix ];
    horizon = mix.duration;
  }

let every period count _ = List.init count (fun p -> float_of_int p *. period)
let cluster ctx = Option.get ctx.db.cluster
let set ctx name v = Hashtbl.replace ctx.counts name v

let add ctx name v =
  let old = Option.value (Hashtbl.find_opt ctx.counts name) ~default:0.0 in
  set ctx name (v +. old)

let tally ctx name = add ctx name 1.0

let observe ctx name v =
  match Hashtbl.find_opt ctx.hists name with
  | Some h -> Histogram.add h v
  | None ->
      let h = Histogram.create () in
      Histogram.add h v;
      Hashtbl.replace ctx.hists name h

(* Run [f] once the engine has drained, before the result is taken. *)
let after ctx f = ctx.finish <- f :: ctx.finish
let schedule ctx ~delay f = Sim.Engine.schedule ctx.engine ~delay f

(* A uniformly drawn key of node [n] among the spec's [keys]. *)
let key ctx n = Printf.sprintf "n%d-k%d" n (Sim.Rng.int ctx.rng ctx.spec.keys)

(* For AVA3, the fault-free harness restart rule of [Ava3_db]. *)
let submit_update ctx ~root ~ops =
  match ctx.db.ops with Ops ((module D), d) -> D.submit_update d ~root ~ops

let first_alive_beats ctx ~period =
  let db = cluster ctx in
  let alive p =
    Ava3.Node_state.alive
      (Cluster.node db (Ava3.Cluster_state.home_site (Cluster.state db) p))
  in
  let partitions = List.init (Cluster.partitions db) Fun.id in
  for b = 1 to int_of_float (ctx.spec.horizon /. period) do
    schedule ctx ~delay:(float_of_int b *. period) (fun () ->
        match List.find_opt alive partitions with
        | Some p -> ignore (Cluster.advance db ~coordinator:p)
        | None -> ())
  done

(* Each update retries through the session pinned to its drawn root, so
   a commit round that timed out after its version was decided is
   finished rather than rerun. *)
let update_stream ctx ~every ~max_ops =
  let rng = ctx.rng and nodes = ctx.spec.nodes in
  let sessions = Session.per_partition ~seed:ctx.spec.seed (cluster ctx) in
  for u = 0 to int_of_float (ctx.spec.horizon /. every) - 1 do
    schedule ctx ~delay:(float_of_int u *. every) (fun () ->
        let root = Sim.Rng.int rng nodes in
        let writes =
          List.init
            (1 + Sim.Rng.int rng max_ops)
            (fun _ ->
              let n = Sim.Rng.int rng nodes in
              (n, key ctx n, Sim.Rng.int rng 1000))
        in
        match
          Session.txn sessions.(root) (fun c ->
              List.iter (fun (node, k, v) -> Session.write c ~node k v) writes)
        with
        | Session.Committed _ -> tally ctx "commits"
        | Session.Failed _ -> tally ctx "aborts")
  done

let start ctx = function
  | Mix spec -> (
      match ctx.db.ops with
      | Ops ((module D), d) ->
          ctx.report <-
            Some
              (Driver.run
                 (module D)
                 d ~engine:ctx.engine ~rng:ctx.rng
                 ~keyspace:(Lazy.force ctx.keyspace) ~spec))
  | Updates { every; max_ops } -> update_stream ctx ~every ~max_ops
  | Custom f -> f ctx

(* ------------------------------------------------------------------ *)
(* The runner                                                          *)
(* ------------------------------------------------------------------ *)

type result = {
  label : string;
  spec : spec;
  report : Driver.report option;
  counts : (string, float) Hashtbl.t;
  hists : (string, Histogram.t) Hashtbl.t;
  stats : Cluster.stats option;
  metrics : Sim.Metrics.snapshot option;
  extra : (string * float) list;  (** the database's own counters *)
  max_versions : int;
  probes : int;  (** the closing check included *)
  violations : int;
  max_gap : float;
      (** largest gap between advancement completions seen by a probe *)
  stalled : bool;
  finished_at : float;
  wall : float;  (** wall-clock seconds of the engine run *)
  events : int;
}

(* One run, in a fixed order every experiment's RNG draws and event
   insertions depend on: database, periodic advancement, load, client
   stream, nemesis, beats, probes, clients, engine run.  A run with a
   label records its metrics under [(tag, label)]. *)
let run_one tag (label, s) =
  let engine = Sim.Engine.create ~seed:s.seed ~trace:false () in
  let rng = lazy (Sim.Rng.split (Sim.Engine.rng engine)) in
  let db = s.system s engine rng in
  (match (s.advancement, db.cluster) with
  | Periodic { coordinator; period = 0.0 }, Some c ->
      Cluster.start_continuous_advancement c ~coordinator ~until:s.horizon
  | Periodic { coordinator; period }, Some c ->
      Cluster.start_periodic_advancement c ~coordinator ~period
        ~until:s.horizon
  | _ -> ());
  for n = 0 to s.nodes - 1 do
    let items =
      match s.load with
      | Keys ->
          List.init s.keys (fun rank ->
              (Workload.Keyspace.key_name ~node:n ~rank, 0))
      | Items f -> f n
    in
    if items <> [] then db.load ~node:n items
  done;
  let ctx =
    {
      spec = s;
      engine;
      db;
      rng = Lazy.force rng;
      keyspace =
        lazy
          (Workload.Keyspace.create ~nodes:s.nodes ~keys_per_node:s.keys
             ~theta:s.theta);
      counts = Hashtbl.create 8;
      hists = Hashtbl.create 4;
      report = None;
      finish = [];
    }
  in
  Option.iter
    (fun plan ->
      Net.Nemesis.install ~engine (Cluster.nemesis_target (cluster ctx))
        (plan ctx))
    s.nemesis;
  (match s.advancement with
  | Beats period -> first_alive_beats ctx ~period
  | Manual | Periodic _ -> ());
  let probes = ref 0 and violations = ref 0 in
  let check c =
    incr probes;
    violations := !violations + List.length (Cluster.check_invariants c)
  in
  let max_gap = ref 0.0 and last_completion = ref 0.0 and last_count = ref 0 in
  Option.iter
    (fun c ->
      List.iter
        (fun at ->
          schedule ctx ~delay:at (fun () ->
              check c;
              let n = (Cluster.stats c).Cluster.advancements in
              let now = Sim.Engine.now engine in
              if n > !last_count then begin
                last_count := n;
                last_completion := now
              end
              else if now -. !last_completion > !max_gap then
                max_gap := now -. !last_completion))
        (s.probes ctx))
    db.cluster;
  List.iter (start ctx) s.clients;
  let t0 = Unix.gettimeofday () in
  Sim.Engine.run ~until:(10.0 *. s.horizon) engine;
  let wall = Unix.gettimeofday () -. t0 in
  let stalled = Sim.Engine.pending_events engine > 0 in
  Option.iter
    (fun c ->
      check c;
      if not stalled then
        violations :=
          !violations + List.length (Cluster.check_quiescent_invariants c))
    db.cluster;
  List.iter (fun f -> f ()) (List.rev ctx.finish);
  match db.ops with
  | Ops ((module D), d) ->
      let metrics = D.metrics_snapshot d in
      if label <> "" then
        Option.iter (Report.record_metrics ~experiment:tag ~label) metrics;
      {
        label;
        spec = s;
        report = ctx.report;
        counts = ctx.counts;
        hists = ctx.hists;
        stats = Option.map Cluster.stats db.cluster;
        metrics;
        extra = D.extra_stats d;
        max_versions = D.max_versions_ever d;
        probes = !probes;
        violations = !violations;
        max_gap = !max_gap;
        stalled;
        finished_at = Sim.Engine.now engine;
        wall;
        events = Sim.Engine.events_executed engine;
      }

let count r name = Option.value (Hashtbl.find_opt r.counts name) ~default:0.0
let icount r name = int_of_float (count r name)
let extra r name = Option.value (List.assoc_opt name r.extra) ~default:0.0
let stats r = Option.get r.stats
let report r = Option.get r.report

let hist r name =
  Option.value (Hashtbl.find_opt r.hists name) ~default:(Histogram.create ())

let period r =
  match r.spec.advancement with
  | Periodic { period; _ } | Beats period -> period
  | Manual -> 0.0

(* ------------------------------------------------------------------ *)
(* Experiments: rows of runs, columns over their results               *)
(* ------------------------------------------------------------------ *)

type cell = Int of int | Float of int * float | Text of string
type table = { header : string list; cells : cell list list }

type t = {
  tag : string;  (** the metrics records' experiment name *)
  title : string;
  rows : (string * spec) list list;
      (** each printed row: its labelled runs; a run may appear in
          several rows and then runs once *)
  columns : (string * (result list -> cell)) list;
  check : (table -> unit) option;
  sequential : bool;
}

let experiment ?check ?(sequential = false) ~tag ~title rows columns =
  { tag; title; rows; columns; check; sequential }

(* One printed row per run. *)
let each run xs = List.map (fun x -> [ run x ]) xs

(* A column over the row's first run, or its [n]th. *)
let col header f = (header, fun rs -> f (List.hd rs))
let nth n header f = (header, fun rs -> f (List.nth rs n))
let ratio a b = if b = 0 then 0.0 else a /. float_of_int b
let f1 v = Float (1, v)
let f2 v = Float (2, v)
let yes_no b = Text (if b then "yes" else "no")

let run ?domains e =
  let runs =
    List.fold_left
      (fun acc r -> if List.memq r acc then acc else r :: acc)
      [] (List.concat e.rows)
    |> List.rev
  in
  let domains = if e.sequential then Some 1 else domains in
  let results =
    List.combine runs (Sim.Pool.map ?domains (run_one e.tag) runs)
  in
  {
    header = List.map fst e.columns;
    cells =
      List.map
        (fun row ->
          let rs = List.map (fun r -> List.assq r results) row in
          List.map (fun (_, f) -> f rs) e.columns)
        e.rows;
  }

let render = function
  | Int n -> string_of_int n
  | Float (digits, v) -> Printf.sprintf "%.*f" digits v
  | Text s -> s

let cell tb ~row header =
  List.assoc header (List.combine tb.header (List.nth tb.cells row))

let text tb ~row header = render (cell tb ~row header)

let value tb ~row header =
  match cell tb ~row header with
  | Int n -> float_of_int n
  | Float (_, v) -> v
  | Text s -> invalid_arg ("Experiment.value: text cell " ^ s)

let check e tb = Option.iter (fun f -> f tb) e.check

let print e tb =
  Report.print ~title:e.title ~header:tb.header
    ~rows:(List.map (List.map render) tb.cells);
  check e tb

(* Every row's values of a column. *)
let column tb header =
  List.mapi (fun row _ -> value tb ~row header) tb.cells

let all_equal = function [] -> true | x :: rest -> List.for_all (( = ) x) rest

(* ------------------------------------------------------------------ *)
(* E3 — §6.2 invariants under load                                     *)
(* ------------------------------------------------------------------ *)

let invariants ?(nodes = [ 1; 3; 5 ]) ?(duration = 1500.0) () =
  let run n =
    (* Load scales with the cluster so bigger topologies do more work. *)
    let mix =
      mixed ~seed:17L ~nodes:n ~keys:80 ~theta:0.8 ~period:(duration /. 12.0)
        {
          Driver.default_spec with
          duration;
          update_rate = 0.12 *. float_of_int n;
          query_rate = 0.06 *. float_of_int n;
          ops_per_update = (2, 4);
          long_query_period = duration /. 8.0;
          long_query_reads = 40;
        }
    in
    (* Probe the invariants at random instants while the workload runs. *)
    ( Printf.sprintf "nodes=%d" n,
      {
        mix with
        probes =
          (fun ctx -> List.init 200 (fun _ -> Sim.Rng.float ctx.rng duration));
      } )
  in
  experiment ~tag:"E3-invariants" ~title:"E3: §6.2 invariants under random load"
    (each run nodes)
    [
      col "nodes" (fun r -> Int r.spec.nodes);
      col "probes" (fun r -> Int r.probes);
      col "violations" (fun r -> Int r.violations);
      col "max-versions" (fun r -> Int (stats r).max_versions_ever);
      col "advancements" (fun r -> Int (stats r).advancements);
      col "commits" (fun r -> Int (report r).committed);
      col "queries" (fun r -> Int (report r).queries_ok);
    ]

(* ------------------------------------------------------------------ *)
(* E4 — staleness                                                      *)
(* ------------------------------------------------------------------ *)

let staleness ?(periods = [ 25.0; 50.0; 100.0; 200.0; 400.0 ])
    ?(eager = [ false; true ]) () =
  let run eager period =
    ( Printf.sprintf "period=%g eager=%b" period eager,
      mixed ~seed:23L ~keys:80 ~theta:0.8 ~period
        ~config:{ Ava3.Config.default with eager_counter_handoff = eager }
        {
          Driver.default_spec with
          duration = 2000.0;
          update_rate = 0.2;
          query_rate = 0.25;
          ops_per_update = (2, 4);
        } )
  in
  let staleness r = (report r).staleness in
  experiment ~tag:"E4-staleness"
    ~title:"E4a: query staleness vs advancement period (AVA3, 3 nodes)"
    (List.concat_map (fun e -> each (run e) periods) eager)
    [
      col "period" (fun r -> f1 (period r));
      col "eager" (fun r -> yes_no r.spec.config.eager_counter_handoff);
      col "mean" (fun r -> f1 (Histogram.mean (staleness r)));
      col "p95" (fun r -> f1 (Histogram.percentile (staleness r) 0.95));
      col "max" (fun r -> f1 (Histogram.max_value (staleness r)));
      col "advancements" (fun r -> Int (stats r).advancements);
    ]

(* The lag between advancement start and queries first seeing the new
   version, with one long update transaction active at advancement start.
   Figure 1's Phase-1 bound; §8 claims the eager hand-off removes it. *)
let lag_probe ~long_txn_duration ctx =
  let db = cluster ctx and engine = ctx.engine in
  let started = ref nan and published = ref nan in
  schedule ctx ~delay:5.0 (fun () ->
      ignore
        (Cluster.run_update db ~root:0
           ~ops:
             [
               Update.Write { node = 0; key = "a"; value = 1 };
               Update.Pause (long_txn_duration /. 4.0);
               (* Touching b (committed in the new version below) triggers
                  the moveToFuture that the eager hand-off exploits. *)
               Update.Write { node = 0; key = "b"; value = 1 };
               Update.Pause (0.75 *. long_txn_duration);
             ]));
  schedule ctx ~delay:10.0 (fun () ->
      started := Sim.Engine.now engine;
      ignore (Cluster.advance db ~coordinator:2));
  schedule ctx ~delay:12.0 (fun () ->
      ignore
        (Cluster.run_update db ~root:0
           ~ops:[ Update.Write { node = 0; key = "b"; value = 2 } ]));
  (* Poll with tiny queries until one reads version 1. *)
  for at = 11 to 199 do
    schedule ctx ~delay:(float_of_int at) (fun () ->
        if Float.is_nan !published then begin
          let q = Cluster.run_query db ~root:1 ~reads:[] in
          if q.Ava3.Query_exec.version >= 1 then
            published := Sim.Engine.now engine
        end)
  done;
  after ctx (fun () -> set ctx "lag" (!published -. !started))

let publish_lag ?(long_txn_duration = 100.0) () =
  let run eager =
    ( Printf.sprintf "eager=%b" eager,
      {
        (spec ~seed:29L ~nodes:3) with
        config =
          {
            Ava3.Config.default with
            eager_counter_handoff = eager;
            write_service_time = 0.0;
          };
        latency = Some (Net.Latency.Constant 1.0);
        load = Items (function 0 -> [ ("a", 0); ("b", 0) ] | _ -> []);
        clients = [ Custom (lag_probe ~long_txn_duration) ];
      } )
  in
  let lag r = f1 (count r "lag") in
  experiment ~tag:"E4b-publish-lag"
    ~title:
      "E4b: publish lag with one long update transaction (bound: txn \
       duration; §8 optimisation removes it)"
    [ [ run false; run true ] ]
    [
      ("long txn", fun _ -> f1 long_txn_duration);
      nth 0 "lag (base)" lag;
      nth 1 "lag (eager hand-off)" lag;
    ]

(* §8 limiting mode: advancements run back to back (overlapping GC), so a
   query's snapshot is stale by at most roughly the age of the longest
   query running when it started — here, the query duration itself. *)
let continuous () =
  let run query_duration =
    let reads = max 1 (int_of_float (query_duration /. 0.5)) in
    ( Printf.sprintf "query_duration=%g" query_duration,
      mixed ~seed:47L ~keys:80 ~theta:0.8 ~period:0.0
        ~config:
          {
            Ava3.Config.default with
            overlap_gc = true;
            eager_counter_handoff = true;
            read_service_time = 0.5;
          }
        {
          Driver.default_spec with
          duration = 1500.0;
          update_rate = 0.15;
          query_rate = 0.1;
          ops_per_update = (1, 3);
          reads_per_query = (reads, reads);
        } )
  in
  let staleness r = (report r).staleness in
  experiment ~tag:"E4c-continuous"
    ~title:
      "E4c: continuous advancement (§8 limit) — staleness bounded by the \
       longest concurrent query"
    (each run [ 5.0; 20.0; 60.0 ])
    [
      (* The measured query duration: remote reads add network latency on
         top of the nominal storage time. *)
      col "query duration (measured)" (fun r ->
          f1 (Histogram.mean (report r).query_latency));
      col "staleness mean" (fun r -> f1 (Histogram.mean (staleness r)));
      col "p95" (fun r -> f1 (Histogram.percentile (staleness r) 0.95));
      col "max" (fun r -> f1 (Histogram.max_value (staleness r)));
      col "rounds" (fun r -> Int (stats r).advancements);
    ]

(* ------------------------------------------------------------------ *)
(* E5 — protocol comparison                                            *)
(* ------------------------------------------------------------------ *)

let comparison ?(duration = 2000.0) () =
  let mix =
    mixed ~seed:31L ~keys:60 ~theta:0.9 ~period:100.0
      {
        Driver.default_spec with
        duration;
        update_rate = 0.25;
        query_rate = 0.12;
        ops_per_update = (2, 4);
        long_query_period = 120.0;
        long_query_reads = 60;
      }
  in
  let run (label, system) = [ (label, { mix with system }) ] in
  let p95 h = f2 (Histogram.percentile h 0.95) in
  experiment ~tag:"E5-comparison"
    ~title:
      "E5: protocols under one mixed workload (3 nodes, Zipf 0.95, long \
       queries every 120)"
    Baseline.
      [
        run (Ava3_db.name, ava3);
        run
          ( S2pl.name,
            baseline (module S2pl)
              (fun engine ~nodes -> S2pl.create ~engine ~nodes ())
              S2pl.load );
        run
          ( Two_version.name,
            baseline (module Two_version)
              (fun engine ~nodes -> Two_version.create ~engine ~nodes ())
              Two_version.load );
        run
          ( Mvcc.name,
            baseline (module Mvcc)
              (fun engine ~nodes -> Mvcc.create ~engine ~nodes ())
              Mvcc.load );
        run
          ( Four_version.name,
            baseline (module Four_version)
              (fun engine ~nodes ->
                Four_version.create ~engine ~advancement_period:100.0
                  ~advancement_until:duration ~nodes ())
              Four_version.load );
      ]
    [
      col "protocol" (fun r -> Text r.label);
      col "commits" (fun r -> Int (report r).committed);
      col "aborts" (fun r -> Int (report r).aborted);
      col "upd p95" (fun r -> p95 (report r).update_latency);
      col "qry p95" (fun r -> p95 (report r).query_latency);
      col "longq p95" (fun r -> p95 (report r).long_query_latency);
      col "staleness" (fun r -> f1 (Histogram.mean (report r).staleness));
      col "max-vers" (fun r -> Int r.max_versions);
      col "lock-wait" (fun r -> f1 (extra r "lock_wait_time"));
      (* What each protocol makes someone wait for: lock waits (S2PL),
         commit delays (2V), advancement aborts (four-version); nothing
         for the version-based protocols. *)
      col "interference" (fun r ->
          f1
            (match r.label with
            | "s2pl" -> extra r "lock_wait_time"
            | "two-version" -> extra r "commit_delay"
            | "four-version-sync" -> extra r "mismatch_aborts"
            | _ -> 0.0));
    ]

(* ------------------------------------------------------------------ *)
(* E6 — moveToFuture                                                   *)
(* ------------------------------------------------------------------ *)

let move_to_future () =
  let run period scheme piggyback =
    ( Printf.sprintf "scheme=%s piggyback=%b period=%g"
        (Wal.Scheme.kind_name scheme) piggyback period,
      mixed ~seed:37L ~keys:80 ~theta:0.9 ~period
        ~config:
          { Ava3.Config.default with scheme; piggyback_version = piggyback }
        {
          Driver.default_spec with
          duration = 2000.0;
          update_rate = 0.3;
          query_rate = 0.05;
          remote_fraction = 0.5;
          ops_per_update = (3, 6);
        } )
  in
  experiment ~tag:"E6-movetofuture"
    ~title:"E6: moveToFuture frequency and cost (§4, §10 piggyback ablation)"
    (List.concat_map
       (fun period ->
         List.concat_map
           (fun scheme -> each (run period scheme) [ false; true ])
           [ Wal.Scheme.No_undo; Wal.Scheme.Undo_redo ])
       [ 50.0; 200.0 ])
    [
      col "scheme" (fun r -> Text (Wal.Scheme.kind_name r.spec.config.scheme));
      col "piggyback" (fun r -> yes_no r.spec.config.piggyback_version);
      col "adv period" (fun r -> f1 (period r));
      col "commits" (fun r -> Int (report r).committed);
      col "mtf@data" (fun r -> Int (stats r).mtf_data_access);
      col "mtf@commit" (fun r -> Int (stats r).mtf_commit_time);
      col "trivial" (fun r -> Int (stats r).mtf_trivial);
      col "items copied" (fun r -> Int (stats r).mtf_items_copied);
    ]

(* Targeted §10 piggyback scenario: the root subtransaction is dragged to
   the new version by a data access, then dispatches a child to a node
   that has not advanced yet.  Piggybacking starts the child directly in
   the new version, eliminating the commit-time moveToFuture. *)
let staged_straddlers = 20

let straddlers ctx =
  let db = cluster ctx in
  for s = 0 to staged_straddlers - 1 do
    let base = 10.0 +. (50.0 *. float_of_int s) in
    (* The straddler: writes at node 0, is dragged to the new version by
       touching [c] (committed there by the transaction below), then
       dispatches its first operation to node 1 — which has not heard
       about the advancement yet. *)
    schedule ctx ~delay:base (fun () ->
        ignore
          (Cluster.run_update db ~root:0
             ~ops:
               [
                 Update.Write { node = 0; key = "a"; value = s };
                 Update.Pause 10.0;
                 Update.Write { node = 0; key = "c"; value = s };
                 Update.Pause 5.0;
                 Update.Write { node = 1; key = "b"; value = s };
               ]));
    (* Node 0 hears Phase 1 first (direct message); node 1 lags. *)
    schedule ctx ~delay:(base +. 2.0) (fun () ->
        let newu = Ava3.Node_state.u (Cluster.node db 0) + 1 in
        Net.Network.send (Cluster.network db) ~src:2 ~dst:0
          (Ava3.Messages.Advance_u { newu }));
    schedule ctx ~delay:(base +. 4.0) (fun () ->
        ignore
          (Cluster.run_update db ~root:0
             ~ops:[ Update.Write { node = 0; key = "c"; value = s } ]));
    (* Let the round finish properly so versions publish and collect. *)
    schedule ctx ~delay:(base +. 30.0) (fun () ->
        ignore (Cluster.advance db ~coordinator:0))
  done

let piggyback () =
  let run piggyback =
    ( Printf.sprintf "piggyback=%b" piggyback,
      {
        (spec ~seed:53L ~nodes:3) with
        config =
          {
            Ava3.Config.default with
            piggyback_version = piggyback;
            read_service_time = 0.0;
            write_service_time = 0.0;
          };
        latency = Some (Net.Latency.Constant 1.0);
        load =
          Items
            (function
            | 0 -> [ ("a", 0); ("c", 0) ] | 1 -> [ ("b", 0) ] | _ -> []);
        clients = [ Custom straddlers ];
      } )
  in
  let commit_mtf r = Int (stats r).mtf_commit_time in
  experiment ~tag:"E6b-piggyback"
    ~title:"E6b: §10 piggyback on transactions that straddle an advancement"
    [ [ run false; run true ] ]
    [
      ("staged straddlers", fun _ -> Int staged_straddlers);
      nth 0 "commit-mtf (plain)" commit_mtf;
      nth 1 "commit-mtf (piggyback)" commit_mtf;
    ]

(* ------------------------------------------------------------------ *)
(* E7 — centralized 3 vs 4 versions; synchronous advancement aborts    *)
(* ------------------------------------------------------------------ *)

(* One site (the §7 centralized case) with constant long queries: how
   long each advancement takes to publish (Phase 2 wait) and how many
   versions are resident.  AVA3 pays the wait with 3 versions; the
   4-version scheme advances instantly with 4. *)
let centralized_load ctx =
  let db = cluster ctx and engine = ctx.engine in
  let key i = Printf.sprintf "k%d" i in
  let steady = ref 0 in
  (* Sample resident versions between advancements (steady state). *)
  for s = 1 to 10 do
    schedule ctx ~delay:((100.0 *. float_of_int s) -. 10.0) (fun () ->
        let store = Ava3.Node_state.store (Cluster.node db 0) in
        steady := max !steady (Vstore.Store.max_live_versions_now store))
  done;
  (* Steady stream of 40-unit queries. *)
  for s = 0 to 60 do
    schedule ctx ~delay:(10.0 +. (20.0 *. float_of_int s)) (fun () ->
        ignore
          (Cluster.run_query db ~root:0
             ~reads:(List.init 80 (fun i -> (0, key (i mod 10))))))
  done;
  (* Updates rewriting every key every round, so each advancement both
     has something to publish and exercises the version bound. *)
  for s = 0 to 150 do
    schedule ctx ~delay:(5.0 +. (8.0 *. float_of_int s)) (fun () ->
        ignore
          (Cluster.run_update db ~root:0
             ~ops:
               [ Update.Write { node = 0; key = key (s mod 10); value = s } ]))
  done;
  (* Advancements every 100 units; measure their completion latency. *)
  for s = 1 to 10 do
    schedule ctx ~delay:(100.0 *. float_of_int s) (fun () ->
        let t0 = Sim.Engine.now engine in
        match Cluster.advance_and_wait db ~coordinator:0 with
        | `Completed _ ->
            tally ctx "advancements";
            observe ctx "latency" (Sim.Engine.now engine -. t0)
        | `Busy -> ())
  done;
  after ctx (fun () -> set ctx "steady" (float_of_int !steady))

let centralized () =
  let run (label, retain_extra) =
    ( label,
      {
        (spec ~seed:41L ~nodes:1) with
        config =
          {
            Ava3.Config.default with
            retain_extra_version = retain_extra;
            read_service_time = 0.5;
          };
        latency = Some (Net.Latency.Constant 0.0);
        load =
          Items
            (fun _ -> List.init 10 (fun i -> (Printf.sprintf "k%d" i, 0)));
        clients = [ Custom centralized_load ];
      } )
  in
  experiment ~tag:"E7-centralized"
    ~title:"E7a: centralized — versions kept vs advancement latency (§7)"
    [
      [ run ("ava3 (3 versions)", false) ];
      [ run ("four-version (MPL92-style)", true) ];
    ]
    [
      col "variant" (fun r -> Text r.label);
      col "max versions" (fun r -> Int (stats r).max_versions_ever);
      col "steady versions" (fun r -> Int (icount r "steady"));
      col "adv latency (mean)" (fun r ->
          f1 (Histogram.mean (hist r "latency")));
      col "advancements" (fun r -> Int (icount r "advancements"));
    ]

(* Distributed: frequent advancements under distributed transactions.
   The synchronous scheme aborts straddlers; AVA3 moves them to the
   future. *)
let sync_aborts () =
  let duration = 1500.0 in
  let mix =
    mixed ~seed:43L ~keys:80 ~theta:0.85 ~period:40.0
      {
        Driver.default_spec with
        duration;
        update_rate = 0.25;
        query_rate = 0.05;
        remote_fraction = 0.6;
        ops_per_update = (3, 6);
      }
  in
  let ava3_run = ("ava3", mix) in
  let fourv_run =
    ( "four-version-sync",
      {
        mix with
        system =
          baseline
            (module Baseline.Four_version)
            (fun engine ~nodes ->
              Baseline.Four_version.create ~engine ~advancement_period:40.0
                ~advancement_until:duration ~nodes ())
            Baseline.Four_version.load;
      } )
  in
  experiment ~tag:"E7b-sync-aborts"
    ~title:"E7b: distributed — advancement-induced aborts (§1, §9)"
    (* Both rows report the AVA3 run's advancement count. *)
    [ [ ava3_run ]; [ fourv_run; ava3_run ] ]
    [
      col "protocol" (fun r -> Text r.label);
      (* AVA3 aborts only come from deadlocks; advancement adds none.
         Report aborts minus deadlock victims (which exist in both
         systems). *)
      col "advancement-induced aborts" (fun r ->
          if r.label = "ava3" then Int ((stats r).aborts - (stats r).deadlocks)
          else Int (int_of_float (extra r "mismatch_aborts")));
      ( "advancements",
        fun rs -> Int (stats (List.nth rs (List.length rs - 1))).advancements
      );
    ]

(* ------------------------------------------------------------------ *)
(* E8 — optimisation ablations and the version-index GC cost           *)
(* ------------------------------------------------------------------ *)

let ablations ?(duration = 1500.0) () =
  let run (label, config) =
    ( label,
      mixed ~seed:59L ~config ~keys:80 ~theta:0.85 ~period:75.0
        {
          Driver.default_spec with
          duration;
          update_rate = 0.25;
          query_rate = 0.2;
          ops_per_update = (2, 4);
          remote_fraction = 0.5;
        } )
  in
  let base = Ava3.Config.default in
  experiment ~tag:"E8-ablations"
    ~title:"E8a: optimisation ablations (same workload and seed)"
    (each run
       [
         ("base protocol", base);
         ("+eager hand-off (§8)", { base with eager_counter_handoff = true });
         ("+piggyback (§10)", { base with piggyback_version = true });
         ( "+root-only counters (§10)",
           { base with root_only_query_counters = true } );
         ( "+shared counters (§10)",
           { base with shared_transaction_counters = true } );
         ("+overlap gc (§8)", { base with overlap_gc = true });
         ( "all optimisations",
           {
             base with
             eager_counter_handoff = true;
             piggyback_version = true;
             root_only_query_counters = true;
             shared_transaction_counters = true;
             overlap_gc = true;
           } );
       ])
    [
      col "configuration" (fun r -> Text r.label);
      col "commits" (fun r -> Int (report r).committed);
      col "messages" (fun r -> Int (stats r).messages);
      col "latches" (fun r -> Int (stats r).latch_acquisitions);
      col "mtf" (fun r ->
          Int ((stats r).mtf_data_access + (stats r).mtf_commit_time));
      col "staleness" (fun r -> f1 (Histogram.mean (report r).staleness));
    ]

(* Under the paper's renumbering rule, every live item is touched each GC
   round; the read-equivalent in-place rule plus the version index makes
   GC proportional to the items actually written. *)
let gc_items = 5000

let gc_rounds ctx =
  let db = cluster ctx in
  Sim.Engine.spawn ctx.engine (fun () ->
      for round = 1 to 10 do
        (* Touch only 50 of the 5000 items per round. *)
        for i = 0 to 49 do
          let key = Printf.sprintf "k%d" (((round * 50) + i) mod gc_items) in
          ignore
            (Cluster.run_update db ~root:0
               ~ops:[ Update.Write { node = 0; key; value = round } ])
        done;
        match Cluster.advance_and_wait db ~coordinator:0 with
        | `Completed _ -> tally ctx "rounds"
        | `Busy -> ()
      done);
  after ctx (fun () ->
      let store = Ava3.Node_state.store (Cluster.node db 0) in
      set ctx "items" (float_of_int (Vstore.Store.item_count store));
      set ctx "visited" (float_of_int (Vstore.Store.gc_items_visited store)))

let gc_cost () =
  let run (label, renumber) =
    ( label,
      {
        (spec ~seed:61L ~nodes:1) with
        config = { Ava3.Config.default with gc_renumber = renumber };
        load =
          Items
            (fun _ ->
              List.init gc_items (fun i -> (Printf.sprintf "k%d" i, 0)));
        clients = [ Custom gc_rounds ];
      } )
  in
  experiment ~tag:"E8b-gc-cost"
    ~title:
      "E8b: Phase-3 GC work, version-indexed (50 of 5000 items written per \
       round)"
    [ [ run ("renumber (paper)", true) ]; [ run ("in-place", false) ] ]
    [
      col "gc rule" (fun r -> Text r.label);
      col "store items" (fun r -> Int (icount r "items"));
      col "gc rounds" (fun r -> Int (icount r "rounds"));
      col "items visited" (fun r -> Int (icount r "visited"));
      col "full-scan equivalent" (fun r -> Int (gc_items * icount r "rounds"));
    ]

(* The R* tree model runs children concurrently; the flat executor ships
   operations one at a time.  With f remote nodes and latency L, flat
   pays ~2fL of network time where the tree pays ~2L. *)
let fan_out ~use_tree ctx =
  let db = cluster ctx and engine = ctx.engine in
  let fanout = ctx.spec.nodes - 1 in
  let key n = Printf.sprintf "k%d" n in
  for s = 0 to 19 do
    schedule ctx ~delay:(float_of_int s *. 100.0) (fun () ->
        let t0 = Sim.Engine.now engine in
        let done_ () = observe ctx "latency" (Sim.Engine.now engine -. t0) in
        if use_tree then begin
          let plan =
            {
              Ava3.Tree_txn.at = 0;
              work = [ Ava3.Tree_txn.Write ("k0", s) ];
              children =
                List.init fanout (fun i ->
                    {
                      Ava3.Tree_txn.at = i + 1;
                      work = [ Ava3.Tree_txn.Write (key (i + 1), s) ];
                      children = [];
                    });
            }
          in
          match Cluster.run_tree_update db ~plan with
          | Ava3.Tree_txn.Committed _ -> done_ ()
          | Ava3.Tree_txn.Aborted _ | Ava3.Tree_txn.Root_down _ -> ()
        end
        else
          match
            Cluster.run_update db ~root:0
              ~ops:
                (Update.Write { node = 0; key = "k0"; value = s }
                :: List.init fanout (fun i ->
                       Update.Write
                         { node = i + 1; key = key (i + 1); value = s }))
          with
          | Update.Committed _ -> done_ ()
          | Update.Aborted _ | Update.Root_down _ -> ())
  done

let tree_vs_flat () =
  let run fanout use_tree =
    ( Printf.sprintf "fanout=%d %s" fanout
        (if use_tree then "tree" else "flat"),
      {
        (spec ~seed:71L ~nodes:(fanout + 1)) with
        config =
          {
            Ava3.Config.default with
            read_service_time = 0.0;
            write_service_time = 0.0;
          };
        latency = Some (Net.Latency.Constant 2.0);
        load = Items (fun n -> [ (Printf.sprintf "k%d" n, 0) ]);
        clients = [ Custom (fan_out ~use_tree) ];
      } )
  in
  let latency r = f1 (Histogram.mean (hist r "latency")) in
  experiment ~tag:"E8c-tree-vs-flat"
    ~title:
      "E8c: flat vs R*-tree transaction execution (latency 2.0/hop, one \
       write per node)"
    (List.map (fun f -> [ run f false; run f true ]) [ 1; 2; 4; 8 ])
    [
      col "remote nodes" (fun r -> Int (r.spec.nodes - 1));
      nth 0 "flat latency" latency;
      nth 1 "tree latency" latency;
    ]

(* ------------------------------------------------------------------ *)
(* E9 — advancement scalability with cluster size                      *)
(* ------------------------------------------------------------------ *)

(* Version advancement costs 5n messages per round (advance-u/ack,
   advance-q/ack, garbage-collect) and two ack-collection barriers;
   latency should stay near-constant with n while messages grow
   linearly.  The protocol cost is measured on an idle cluster (a loaded
   one would conflate transaction RPC traffic); throughput and staleness
   come from a loaded run of the same size. *)
let idle_rounds ctx =
  let db = cluster ctx and engine = ctx.engine in
  Sim.Engine.spawn engine (fun () ->
      let net = Cluster.network db in
      for round = 0 to 4 do
        (* Keep versions moving so every round has something to
           publish. *)
        ignore
          (Cluster.run_update db ~root:0
             ~ops:[ Update.Write { node = 0; key = "x"; value = round } ]);
        let before = Net.Network.messages_sent net in
        let t0 = Sim.Engine.now engine in
        match
          Cluster.advance_and_wait db ~coordinator:(round mod ctx.spec.nodes)
        with
        | `Completed _ ->
            observe ctx "latency" (Sim.Engine.now engine -. t0);
            observe ctx "messages"
              (float_of_int (Net.Network.messages_sent net - before))
        | `Busy -> ()
      done)

(* Evenly spaced updates and single-read queries at rates that grow with
   the cluster. *)
let spaced_load ctx =
  let db = cluster ctx and rng = ctx.rng and nodes = ctx.spec.nodes in
  let ks = Lazy.force ctx.keyspace and duration = ctx.spec.horizon in
  let update_rate = 0.08 *. float_of_int nodes
  and query_rate = 0.05 *. float_of_int nodes in
  let evenly rate =
    List.init
      (int_of_float (rate *. duration))
      (fun i -> float_of_int i /. rate)
  in
  List.iter
    (fun at ->
      schedule ctx ~delay:at (fun () ->
          let root = Sim.Rng.int rng nodes in
          let ops =
            List.init (Sim.Rng.int_in rng 2 4) (fun _ ->
                let n = Sim.Rng.int rng nodes in
                Workload.Db_intf.Write
                  {
                    node = n;
                    key = Workload.Keyspace.draw_at ks rng ~node:n;
                    value = Sim.Rng.int rng 1000;
                  })
          in
          match submit_update ctx ~root ~ops with
          | Workload.Db_intf.Committed -> tally ctx "commits"
          | Workload.Db_intf.Aborted -> ()))
    (evenly update_rate);
  List.iter
    (fun at ->
      schedule ctx ~delay:at (fun () ->
          let root = Sim.Rng.int rng nodes in
          let q =
            Cluster.run_query db ~root
              ~reads:[ (root, Workload.Keyspace.draw_at ks rng ~node:root) ]
          in
          Option.iter (observe ctx "staleness") q.Ava3.Query_exec.staleness))
    (evenly query_rate)

let scalability () =
  let row nodes =
    [
      ( "",
        {
          (spec ~seed:67L ~nodes) with
          load = Items (function 0 -> [ ("x", 1) ] | _ -> []);
          clients = [ Custom idle_rounds ];
        } );
      ( Printf.sprintf "nodes=%d" nodes,
        {
          (spec ~seed:67L ~nodes) with
          keys = 40;
          theta = 0.8;
          advancement = Periodic { coordinator = 0; period = 100.0 };
          clients = [ Custom spaced_load ];
          horizon = 1200.0;
        } );
    ]
  in
  let mean r name = f1 (Histogram.mean (hist r name)) in
  experiment ~tag:"E9-scalability"
    ~title:"E9: advancement cost vs cluster size (per-node load held constant)"
    (List.map row [ 1; 2; 4; 8; 16 ])
    [
      col "nodes" (fun r -> Int r.spec.nodes);
      nth 0 "adv latency (mean)" (fun r -> mean r "latency");
      nth 0 "messages/round" (fun r -> mean r "messages");
      nth 1 "commits" (fun r -> Int (icount r "commits"));
      nth 1 "staleness" (fun r -> mean r "staleness");
    ]

(* ------------------------------------------------------------------ *)
(* E10 — availability and advancement latency under faults             *)
(* ------------------------------------------------------------------ *)

(* Queries never block on advancement; they fail only when their root is
   down or a remote read is cut off mid-fault. *)
let random_queries ctx =
  let db = cluster ctx and rng = ctx.rng and nodes = ctx.spec.nodes in
  for q = 0 to int_of_float (ctx.spec.horizon /. 5.0) - 1 do
    schedule ctx ~delay:(float_of_int q *. 5.0) (fun () ->
        let root = Sim.Rng.int rng nodes in
        let reads =
          List.init
            (1 + Sim.Rng.int rng 3)
            (fun _ ->
              let n = Sim.Rng.int rng nodes in
              (n, key ctx n))
        in
        match Cluster.run_query db ~root ~reads with
        | _ -> tally ctx "queries ok"
        | exception (Net.Network.Node_down _ | Net.Network.Rpc_timeout _) ->
            tally ctx "queries failed")
  done

(* One cluster under a seeded nemesis.  Faults are drawn from the run's
   RNG before anything runs, so the schedule (and hence every number in
   the row) is a pure function of the seed — identical at any
   AVA3_DOMAINS width.  The first-alive beats bound advancement stalls by
   the beat period plus the repair time, and queries keep reading their
   snapshots throughout. *)
let faults () =
  let horizon = 1000.0 in
  let run (label, crashes, partitions, slow_links) =
    ( label,
      {
        (spec ~seed:73L ~nodes:3) with
        config =
          {
            Ava3.Config.default with
            rpc_timeout = 10.0;
            advancement_retry = 30.0;
            max_retries = 4;
            retry_backoff_base = 12.0;
          };
        keys = 20;
        advancement = Beats 50.0;
        (* All faults heal well before the horizon so the run drains;
           crash windows are disjoint (see Nemesis.random_plan). *)
        nemesis =
          Some
            (fun ctx ->
              Net.Nemesis.random_plan ~rng:ctx.rng ~nodes:3
                ~horizon:(horizon *. 0.8) ~crashes ~partitions ~slow_links
                ~min_duration:40.0 ~max_duration:80.0 ~extra_latency:4.0 ());
        probes = every 10.0 (int_of_float (horizon /. 10.0) + 4);
        clients =
          [
            Updates { every = 8.0; max_ops = 3 };
            Custom random_queries;
          ];
        horizon;
      } )
  in
  experiment ~tag:"E10-faults"
    ~title:
      "E10: availability under faults (3 nodes, rpc timeout 10, advancement \
       beat 50, horizon 1000)"
    (each run
       [
         ("no faults", 0, 0, 0);
         ("crashes", 2, 0, 0);
         ("partitions", 0, 2, 0);
         ("crash+partition+slow", 2, 1, 1);
       ])
    [
      col "scenario" (fun r -> Text r.label);
      col "commits" (fun r -> Int (icount r "commits"));
      col "aborts" (fun r -> Int (icount r "aborts"));
      col "timeouts" (fun r ->
          let add acc n = acc + n.Sim.Metrics.aborts_rpc_timeout in
          Int (List.fold_left add 0 (Option.get r.metrics)));
      col "queries ok" (fun r -> Int (icount r "queries ok"));
      col "q failed" (fun r -> Int (icount r "queries failed"));
      col "advancements" (fun r -> Int (stats r).advancements);
      col "max adv gap" (fun r -> f1 r.max_gap);
      col "violations" (fun r -> Int r.violations);
    ]

(* ------------------------------------------------------------------ *)
(* E11 — commit-path batching: group-commit WAL + RPC coalescing       *)
(* ------------------------------------------------------------------ *)

let batch_workers = 6
let batch_key n w k = Printf.sprintf "n%d-w%d-k%d" n w k

(* [batch_workers] clients per node, each committing 24 two-site updates
   on its own private keys (no lock conflicts — the run measures the
   commit path, not contention).  The disk force latency is the dominant
   cost: with the window at 0 every committer queues on the serial disk
   for its own force, with a window one force covers the batch.  The
   work is identical in every row (same seed, same fixed transaction
   count, hence the same logical message count), so forces, envelopes
   and the makespan-derived throughput are directly comparable. *)
let batch_clients ctx =
  let db = cluster ctx and nodes = ctx.spec.nodes in
  for n = 0 to nodes - 1 do
    for w = 0 to batch_workers - 1 do
      Sim.Engine.spawn ctx.engine
        ~name:(Printf.sprintf "client-n%d-w%d" n w)
        (fun () ->
          let peer = (n + 1) mod nodes in
          let rec loop i =
            if i < 24 then begin
              if i > 0 then Sim.Engine.sleep 1.0;
              let ops =
                [
                  Update.Write
                    { node = n; key = batch_key n w (i mod 4); value = i };
                  Update.Write
                    {
                      node = peer;
                      key = batch_key peer (batch_workers + w) (i mod 4);
                      value = i;
                    };
                ]
              in
              (match Cluster.run_update db ~root:n ~ops with
              | Update.Committed info ->
                  tally ctx "commits";
                  observe ctx "latency"
                    (info.Update.finished_at -. info.Update.started_at)
              | Update.Aborted _ | Update.Root_down _ -> ());
              loop (i + 1)
            end
          in
          loop 0)
    done
  done

let batching () =
  let run (label, gc_window, rpc_window) =
    ( label,
      {
        (spec ~seed:211L ~nodes:3) with
        config =
          {
            Ava3.Config.default with
            disk_force_latency = 2.0;
            group_commit_window = gc_window;
            rpc_batch_window = rpc_window;
          };
        load =
          Items
            (fun n ->
              List.concat_map
                (fun w -> List.init 4 (fun k -> (batch_key n w k, 0)))
                (List.init (2 * batch_workers) Fun.id));
        clients = [ Custom batch_clients ];
      } )
  in
  experiment ~tag:"E11-batching"
    ~title:
      "E11: commit-path batching (3 nodes, 6 clients/node, 24 txns each, \
       disk force 2.0)"
    (each run
       [
         ("off", 0.0, 0.0);
         ("w=1", 1.0, 0.25);
         ("w=4", 4.0, 1.0);
         ("w=16", 16.0, 4.0);
       ])
    [
      col "batching" (fun r -> Text r.label);
      col "gc win" (fun r -> f1 r.spec.config.group_commit_window);
      col "rpc win" (fun r -> f2 r.spec.config.rpc_batch_window);
      col "commits" (fun r -> Int (icount r "commits"));
      (* The queue drained: [finished_at] is the instant the last commit
         (plus its final network leg) finished — the makespan of the
         fixed workload. *)
      col "commits/s" (fun r -> f2 (count r "commits" /. r.finished_at));
      col "lat mean" (fun r -> f1 (Histogram.mean (hist r "latency")));
      col "lat p95" (fun r ->
          f1 (Histogram.percentile (hist r "latency") 0.95));
      col "forces" (fun r -> Int (stats r).disk_forces);
      col "recs/force" (fun r ->
          let s = stats r in
          f1 (ratio (float_of_int s.records_forced) s.disk_forces));
      col "envelopes" (fun r -> Int (stats r).envelopes);
      col "messages" (fun r -> Int (stats r).messages);
    ]

(* ------------------------------------------------------------------ *)
(* E12 — hierarchical advancement at scale                             *)
(* ------------------------------------------------------------------ *)

let data_sites nodes = max 2 (nodes / 8)

(* A Zipf-skewed (hot-partition), storm-bursty update/query mix confined
   to the data sites. *)
let storm_load ctx =
  let db = cluster ctx and rng = ctx.rng and duration = ctx.spec.horizon in
  let sites = data_sites ctx.spec.nodes in
  let zipf = Workload.Zipf.create ~n:sites ~theta:0.9 in
  let pick_site () = Workload.Zipf.sample zipf rng in
  let pick_key s = Printf.sprintf "n%d-k%d" s (Sim.Rng.int rng ctx.spec.keys) in
  let arrivals () =
    Driver.arrival_times rng
      ~rate:(0.02 *. float_of_int sites)
      ~duration ~storm_factor:3.0 ~storm_period:150.0 ()
  in
  List.iter
    (fun at ->
      schedule ctx ~delay:at (fun () ->
          let root = pick_site () in
          let other = pick_site () in
          (* Write in canonical (site, key) order: with every transaction
             acquiring its two hot-partition locks the same way, the storm
             cannot manufacture lock-order deadlock cycles, and the sweep
             measures advancement behavior rather than retry meltdown. *)
          let w1 = (root, pick_key root) and w2 = (other, pick_key other) in
          let (a, ka), (b, kb) = if w1 <= w2 then (w1, w2) else (w2, w1) in
          let ops =
            [
              Workload.Db_intf.Write
                { node = a; key = ka; value = Sim.Rng.int rng 1000 };
              Workload.Db_intf.Write
                { node = b; key = kb; value = Sim.Rng.int rng 1000 };
            ]
          in
          ignore (submit_update ctx ~root ~ops)))
    (arrivals ());
  List.iter
    (fun at ->
      schedule ctx ~delay:at (fun () ->
          let root = pick_site () in
          ignore (Cluster.run_query db ~root ~reads:[ (root, pick_key root) ])))
    (arrivals ());
  (* The coordinator hosts no data and runs no transactions, so its
     egress is advancement traffic alone. *)
  after ctx (fun () ->
      let net = Cluster.network db and coordinator = ctx.spec.nodes - 1 in
      let egress = ref 0 in
      for dst = 0 to ctx.spec.nodes - 1 do
        egress := !egress + Net.Network.link_count net ~src:coordinator ~dst
      done;
      set ctx "egress" (float_of_int !egress))

let mode_name (c : Ava3.Config.t) =
  if c.tree_arity = 0 then "flat"
  else
    Printf.sprintf "tree-%d%s" c.tree_arity
      (if c.partition_aware then "+pa" else "")

(* Cluster sizes under flat advancement and a tree of arity 8, with and
   without partition-aware participant sets.  A per-message transmitter
   cost is what makes the flat O(N) broadcast expensive at the
   coordinator; without it a 1000-wide fan-out departs in zero simulated
   time and the tree could only lose (it adds hops).  Rows run one at a
   time so the events/sec column is single-domain wall clock. *)
let hierarchy ?(sizes = [ 64; 256; 1024 ]) () =
  let run nodes (tree_arity, partition_aware) =
    let config =
      {
        Ava3.Config.default with
        tree_arity;
        partition_aware;
        send_occupancy = 0.05;
      }
    in
    ( Printf.sprintf "nodes=%d mode=%s" nodes (mode_name config),
      {
        (spec ~seed:83L ~nodes) with
        config;
        keys = 12;
        load =
          Items
            (fun s ->
              if s < data_sites nodes then
                List.init 12 (fun i -> (Printf.sprintf "n%d-k%d" s i, 0))
              else []);
        advancement = Periodic { coordinator = nodes - 1; period = 60.0 };
        clients = [ Custom storm_load ];
        horizon = 600.0;
      } )
  in
  let mean r phase =
    let c, s =
      List.fold_left
        (fun (c, s) (n : Sim.Metrics.node_snapshot) ->
          let h : Sim.Metrics.hist_snapshot = phase n in
          (c + h.Sim.Metrics.count, s +. h.Sim.Metrics.sum))
        (0, 0.0) (Option.get r.metrics)
    in
    f2 (ratio s c)
  in
  experiment ~sequential:true ~tag:"E12-hierarchy"
    ~title:
      "E12: hierarchical advancement at scale (hot Zipf partitions, arrival \
       storms; data on n/8 sites)"
    (List.concat_map
       (fun nodes -> each (run nodes) [ (0, false); (8, false); (8, true) ])
       sizes)
    [
      col "nodes" (fun r -> Int r.spec.nodes);
      col "mode" (fun r -> Text (mode_name r.spec.config));
      col "rounds" (fun r -> Int (stats r).advancements);
      col "phase1 mean" (fun r -> mean r (fun n -> n.phase1_duration));
      col "phase2 mean" (fun r -> mean r (fun n -> n.phase2_duration));
      (* O(n) flat, O(arity) hierarchical *)
      col "coord msgs/round" (fun r ->
          f1 (ratio (count r "egress") (stats r).advancements));
      col "commits" (fun r -> Int (stats r).commits);
      col "aborts" (fun r -> Int (stats r).aborts);
      col "mtf" (fun r ->
          Int ((stats r).mtf_data_access + (stats r).mtf_commit_time));
      col "events/s" (fun r ->
          let rate =
            if r.wall > 0.0 then float_of_int r.events /. r.wall else 0.0
          in
          Text (Printf.sprintf "%.0fk" (rate /. 1000.0)));
    ]

(* ------------------------------------------------------------------ *)
(* E13 — replication: pinned backup reads under faults                 *)
(* ------------------------------------------------------------------ *)

(* Closed-loop query clients whose reads are all remote, so each goes
   through the version-pinned router; reply bandwidth at the serving site
   ([send_occupancy]) is the contended resource extra replicas multiply.
   Staleness is the age of the snapshot version each query read, at its
   completion. *)
let pinned_reads ctx =
  let db = cluster ctx and engine = ctx.engine in
  let nparts = ctx.spec.nodes and horizon = ctx.spec.horizon in
  for c = 0 to 8 do
    schedule ctx ~delay:(0.5 *. float_of_int c) (fun () ->
        while Sim.Engine.now engine < horizon do
          let root = c mod nparts in
          let reads =
            List.init 2 (fun i ->
                let n = (root + 1 + ((c + i) mod (nparts - 1))) mod nparts in
                (n, key ctx n))
          in
          (match Cluster.run_query db ~root ~reads with
          | (q : int Ava3.Query_exec.result) ->
              tally ctx "queries ok";
              Option.iter (observe ctx "staleness")
                (Cluster.staleness_of_version db ~version:q.version
                   ~at:(Sim.Engine.now engine))
          | exception (Net.Network.Node_down _ | Net.Network.Rpc_timeout _) ->
              tally ctx "queries failed");
          Sim.Engine.sleep 1.0
        done)
  done

(* One cluster per replica count under the same seeded fault schedule:
   crashes hit the original primary sites (forcing promotion when backups
   exist, partition outage when they don't) and link partitions cut
   primary-to-primary links (backups, living at higher site ids, keep
   their ship links and keep serving pinned reads). *)
let replication ?(horizon = 1000.0) () =
  let run replicas =
    ( Printf.sprintf "replicas=%d" replicas,
      {
        (spec ~seed:97L ~nodes:3) with
        config =
          {
            Ava3.Config.default with
            replicas;
            replica_catchup_timeout = 12.0;
            rpc_timeout = 15.0;
            advancement_retry = 30.0;
            read_service_time = 0.5;
            write_service_time = 0.5;
            send_occupancy = 0.4;
            max_retries = 4;
            retry_backoff_base = 10.0;
          };
        keys = 12;
        advancement = Beats 40.0;
        (* Targets are site ids 0..2, the original primaries, at every
           replica count. *)
        nemesis =
          Some
            (fun ctx ->
              Net.Nemesis.random_plan ~rng:ctx.rng ~nodes:3
                ~horizon:(horizon *. 0.8) ~crashes:2 ~partitions:2
                ~slow_links:0 ~min_duration:40.0 ~max_duration:80.0 ());
        probes = every 10.0 (int_of_float (horizon /. 10.0) + 1);
        clients =
          [
            Updates { every = 6.0; max_ops = 2 };
            Custom pinned_reads;
          ];
        horizon;
      } )
  in
  let stale r = hist r "staleness" in
  experiment ~tag:"E13-replication"
    ~title:
      "E13: pinned backup reads under faults (3 partitions, 2 crashes + 2 \
       link partitions, closed-loop cross-partition queries)"
    (each run [ 0; 1; 2 ])
    [
      col "replicas" (fun r -> Int r.spec.config.replicas);
      col "queries ok" (fun r -> Int (icount r "queries ok"));
      col "q failed" (fun r -> Int (icount r "queries failed"));
      col "reads/t" (fun r -> f2 (count r "queries ok" /. r.spec.horizon));
      col "backup reads" (fun r -> Int (stats r).backup_reads);
      col "stale mean" (fun r -> f2 (Histogram.mean (stale r)));
      col "stale p95" (fun r -> f2 (Histogram.percentile (stale r) 0.95));
      col "stale max" (fun r -> f1 (Histogram.max_value (stale r)));
      col "commits" (fun r -> Int (icount r "commits"));
      col "aborts" (fun r -> Int (icount r "aborts"));
      col "demotions" (fun r -> Int (stats r).replica_demotions);
      col "promotions" (fun r -> Int (stats r).replica_promotions);
      col "advancements" (fun r -> Int (stats r).advancements);
      col "violations" (fun r -> Int r.violations);
    ]

(* ------------------------------------------------------------------ *)
(* E14 — secondary indexes: indexed vs full-scan analytical mix        *)
(* ------------------------------------------------------------------ *)

let index_totals ctx =
  after ctx (fun () ->
      let db = cluster ctx in
      for i = 0 to Cluster.node_count db - 1 do
        match Ava3.Node_state.index (Cluster.node db i) with
        | Some ix ->
            let s = Vindex.Index.stats ix in
            add ctx "index updates" (float_of_int s.Vindex.Index.updates);
            add ctx "index probes" (float_of_int s.Vindex.Index.probes)
        | None -> ()
      done)

(* The same generated analytical mix (point queries + attribute-range
   scans + hash joins alongside the update stream, periodic advancement
   underneath) under each access-path plan.  Identical seeds give
   identical workloads across plans, and because AVA3 updates never wait
   for queries or advancement the update stream's outcome is
   plan-independent: the access path only moves the analytical latency
   and the staleness (slow full scans hold query counters longer,
   delaying Phase 2).  [`Both_check] runs both plans back to back at
   every serving node and raises on any divergence, so the sweep doubles
   as an equivalence oracle. *)
let analytical ?(horizon = 1500.0) () =
  let mix =
    mixed ~seed:41L ~keys:40 ~theta:0.8 ~period:60.0
      ~config:
        {
          Ava3.Config.default with
          read_service_time = 0.2;
          write_service_time = 0.3;
        }
      {
        Driver.default_spec with
        duration = horizon;
        update_rate = 0.4;
        query_rate = 0.3;
        scan_fraction = 0.3;
        join_fraction = 0.1;
      }
  in
  let run (label, scan_plan) =
    ( label,
      {
        mix with
        (* This experiment splits its client stream off the engine's root
           before the cluster splits the network's. *)
        system =
          (fun s engine rng ->
            ignore (Lazy.force rng);
            ava3_with ~index:Baseline.Ava3_db.default_extract ~scan_plan s
              engine);
        load =
          Items
            (fun n ->
              List.init 40 (fun i ->
                  (Workload.Keyspace.key_name ~node:n ~rank:i, (n * 40) + i)));
        clients = Custom index_totals :: mix.clients;
      } )
  in
  let scans r = (report r).scan_latency in
  (* The update stream's outcome must be byte-identical across plans: any
     drift means the access path leaked into transaction semantics. *)
  let check tb =
    if
      List.for_all
        (fun h -> all_equal (column tb h))
        [ "commits"; "aborts"; "queries ok"; "scans"; "joins" ]
      && List.for_all (( = ) 0.0) (column tb "violations")
    then
      print_endline
        "E14: commit/abort/query counters identical across plans; no \
         invariant violations"
    else
      failwith
        "E14 VIOLATION: access-path plan changed transaction outcomes or \
         invariants failed"
  in
  experiment ~check ~tag:"E14-analytical"
    ~title:
      "E14: indexed vs full-scan analytical mix (3 nodes, 30% scans + 10% \
       joins in the query stream, periodic advancement; both-check row is \
       the equivalence oracle)"
    (each run
       [
         ("index", `Index);
         ("full-scan", `Full_scan);
         ("both-check", `Both_check);
       ])
    [
      col "plan" (fun r -> Text r.label);
      col "commits" (fun r -> Int (report r).committed);
      col "aborts" (fun r -> Int (report r).aborted);
      col "queries ok" (fun r -> Int (report r).queries_ok);
      col "scans" (fun r -> Int (report r).scans_ok);
      col "joins" (fun r -> Int (report r).joins_ok);
      col "scan mean" (fun r -> f2 (Histogram.mean (scans r)));
      col "scan p95" (fun r -> f2 (Histogram.percentile (scans r) 0.95));
      col "join mean" (fun r -> f2 (Histogram.mean (report r).join_latency));
      col "joins/100t" (fun r ->
          f2 (float_of_int (report r).joins_ok /. r.spec.horizon *. 100.0));
      col "stale mean" (fun r -> f2 (Histogram.mean (report r).staleness));
      col "stale max" (fun r -> f1 (Histogram.max_value (report r).staleness));
      col "idx updates" (fun r -> Int (icount r "index updates"));
      col "idx probes" (fun r -> Int (icount r "index probes"));
      col "advancements" (fun r -> Int (stats r).advancements);
      col "violations" (fun r -> Int r.violations);
    ]

(* ------------------------------------------------------------------ *)
(* E15 — session layer: goodput and wasted work vs retry policy        *)
(* ------------------------------------------------------------------ *)

(* A few sessions each run a seeded [Session.Dsl.gen] program (savepoint
   scopes, expect-abort rollbacks, occasional queries) while a nemesis
   crashes nodes and cuts links underneath and advancement beats keep
   versions moving.  Everything random draws from named forks of the
   engine's root stream, so every policy row faces the exact same
   workload and faults; only the retry discipline differs. *)
let sessions ctx =
  let db = cluster ctx and nodes = ctx.spec.nodes in
  let horizon = ctx.spec.horizon in
  let root = Sim.Engine.rng ctx.engine in
  let gen_rng = Sim.Rng.fork_named root "e15-gen" in
  for i = 0 to 2 do
    let prog =
      Session.Dsl.gen ~rng:gen_rng ~nodes ~keys_per_node:ctx.spec.keys
        ~txns:(max 4 (int_of_float (horizon /. 120.0)))
    in
    Sim.Engine.schedule ctx.engine ~name:(Printf.sprintf "session-%d" i)
      ~delay:(1.0 +. (5.0 *. float_of_int i))
      (fun () ->
        let s = Session.create db ~seed:(Int64.of_int (1000 + i)) in
        let sum = Session.Dsl.run s prog in
        add ctx "committed" (float_of_int sum.committed);
        add ctx "failed" (float_of_int sum.failed);
        add ctx "attempts" (float_of_int sum.attempts);
        add ctx "queries" (float_of_int sum.queries);
        add ctx "query failures" (float_of_int sum.query_failures))
  done;
  (* Advancement beats so retried work lands across several versions. *)
  for k = 1 to int_of_float (horizon /. 45.0) do
    schedule ctx ~delay:(45.0 *. float_of_int k) (fun () ->
        ignore (Cluster.advance db ~coordinator:(k mod nodes)))
  done;
  after ctx (fun () ->
      let m = Cluster.metrics db in
      set ctx "retries" (float_of_int (Sim.Metrics.total_session_retries m));
      set ctx "backoff" (Sim.Metrics.total_session_backoff m);
      set ctx "rollbacks"
        (float_of_int (Sim.Metrics.total_savepoint_rollbacks m)))

(* Wasted work is the attempt surplus: attempts that burned locks, RPCs
   and log traffic without producing a commit. *)
let session_retry ?(horizon = 1200.0) () =
  let run (label, max_retries, retry_backoff_base) =
    ( label,
      {
        (spec ~seed:59L ~nodes:3) with
        config =
          {
            Ava3.Config.default with
            read_service_time = 0.3;
            write_service_time = 0.5;
            rpc_timeout = 20.0;
            advancement_retry = 40.0;
            max_retries;
            retry_backoff_base;
          };
        keys = 8;
        nemesis =
          Some
            (fun ctx ->
              let root = Sim.Engine.rng ctx.engine in
              Net.Nemesis.random_plan
                ~rng:(Sim.Rng.fork_named root "e15-nemesis")
                ~nodes:3 ~horizon:(horizon /. 1.5) ~crashes:2 ~partitions:2
                ~slow_links:1 ~min_duration:20.0 ~max_duration:60.0
                ~extra_latency:3.0 ());
        load =
          Items
            (fun n ->
              List.init 8 (fun i -> (Session.Dsl.gen_key ~node:n i, i)));
        probes =
          (fun ctx ->
            let rng =
              Sim.Rng.fork_named (Sim.Engine.rng ctx.engine) "e15-probes"
            in
            List.init 10 (fun _ -> Sim.Rng.float rng horizon));
        clients = [ Custom sessions ];
        horizon;
      } )
  in
  (* Every row runs the same generated programs, so the program count —
     committed + failed — must agree across rows, and no row may trip an
     invariant probe or stall the simulation. *)
  let check tb =
    if
      all_equal (List.map2 ( +. ) (column tb "committed") (column tb "failed"))
      && List.for_all (( = ) 0.0) (column tb "violations")
    then
      print_endline
        "E15: program counts identical across policies; no invariant \
         violations"
    else
      failwith
        "E15 VIOLATION: retry policy changed the program count or an \
         invariant/livelock check failed"
  in
  experiment ~check ~tag:"E15-sessions"
    ~title:
      "E15: session goodput and wasted work vs retry policy (3 sessions of \
       seeded DSL programs, 2 crashes + 2 partitions + 1 slow link, \
       advancement beats; same workload and faults in every row)"
    (each run
       [
         ("no-retry", 0, 5.0);
         ("retry-2", 2, 5.0);
         ("retry-5", 5, 5.0);
         ("retry-5-eager", 5, 0.0);
       ])
    [
      col "policy" (fun r -> Text r.label);
      col "committed" (fun r -> Int (icount r "committed"));
      col "failed" (fun r -> Int (icount r "failed"));
      col "attempts" (fun r -> Int (icount r "attempts"));
      col "wasted" (fun r -> Int (icount r "attempts" - icount r "committed"));
      col "retries" (fun r -> Int (icount r "retries"));
      col "backoff" (fun r -> f1 (count r "backoff"));
      col "sp-rollbacks" (fun r -> Int (icount r "rollbacks"));
      col "queries" (fun r -> Int (icount r "queries"));
      col "q-failures" (fun r -> Int (icount r "query failures"));
      col "goodput/100t" (fun r ->
          f2 (count r "committed" /. r.spec.horizon *. 100.0));
      col "violations" (fun r ->
          Int (r.violations + if r.stalled then 1 else 0));
    ]

(* ------------------------------------------------------------------ *)
(* The suite table                                                     *)
(* ------------------------------------------------------------------ *)

let suites =
  let show es () = List.iter (fun e -> print e (run e)) es in
  [
    ("table1", Table1.report);
    ("figure1", Figure1.report);
    ("invariants", show [ invariants () ]);
    ("staleness", show [ staleness (); publish_lag (); continuous () ]);
    ("comparison", show [ comparison () ]);
    ("movetofuture", show [ move_to_future (); piggyback () ]);
    ("centralized", show [ centralized (); sync_aborts () ]);
    ("serializability", Serial_check.report);
    ("ablations", show [ ablations (); gc_cost (); tree_vs_flat () ]);
    ("scalability", show [ scalability () ]);
    ("e12", show [ hierarchy () ]);
    ("e12smoke", show [ hierarchy ~sizes:[ 256 ] () ]);
    ("faults", show [ faults () ]);
    ("batching", show [ batching () ]);
    ("e13", show [ replication () ]);
    ("e13smoke", show [ replication ~horizon:300.0 () ]);
    ("e14", show [ analytical () ]);
    ("e14smoke", show [ analytical ~horizon:300.0 () ]);
    ("e15", show [ session_retry () ]);
    ("e15smoke", show [ session_retry ~horizon:300.0 () ]);
  ]
