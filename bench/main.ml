(* Benchmark and reproduction harness.

   `dune exec bench/main.exe [--json] [suite...]` runs the named suites,
   or every suite in order:
     table1 ... e15smoke — the deterministic suites of
                   Dbsim.Experiment.suites: the Table 1 and Figure 1
                   replays, Theorem 6.2 serializability, and the E3–E15
                   experiment tables (EXPERIMENTS.md)
     check       — schedule-explorer coverage and conviction self-tests
     index       — secondary-index probe vs full-scan microbenchmark
     micro       — bechamel microbenchmarks of the core operations
     engine      — simulator events/sec against the committed baseline
     mcore       — multicore backend ops/sec against the committed baseline

   `--json` additionally writes BENCH_micro.json (micro ns/run, per-suite
   wall-clock, and the per-node metrics registry of every experiment
   configuration under "experiments") for machine consumption.

   Experiment sweeps fan out over domains (see Sim.Pool); set
   AVA3_DOMAINS=1 to force sequential runs.  Results are identical at
   any domain count. *)

open Bechamel
open Toolkit

let json_mode = ref false
let micro_rows : (string * float) list ref = ref []
let suite_times : (string * float) list ref = ref []

(* ------------------------------------------------------------------ *)
(* Microbenchmarks: the primitive operations whose cost the paper
   argues about (latched counters, version lookups, moveToFuture).     *)
(* ------------------------------------------------------------------ *)

let bench_latch =
  let latch = Lockmgr.Latch.create "bench" in
  let cell = ref 0 in
  Test.make ~name:"latched counter incr+decr"
    (Staged.stage (fun () ->
         Lockmgr.Latch.incr_protected latch cell;
         Lockmgr.Latch.decr_protected latch cell))

let bench_store_read =
  let store : int Vstore.Store.t = Vstore.Store.create ~bound:3 () in
  Vstore.Store.write store "x" 0 1;
  Vstore.Store.write store "x" 1 2;
  Vstore.Store.write store "x" 2 3;
  Test.make ~name:"vstore read_le (3 live versions)"
    (Staged.stage (fun () -> ignore (Vstore.Store.read_le store "x" 1)))

let bench_store_write =
  let store : int Vstore.Store.t = Vstore.Store.create ~bound:3 () in
  let i = ref 0 in
  Test.make ~name:"vstore write (overwrite same version)"
    (Staged.stage (fun () ->
         incr i;
         Vstore.Store.write store "x" 0 !i))

let bench_copy_forward =
  let store : int Vstore.Store.t = Vstore.Store.create ~bound:3 () in
  Vstore.Store.write store "x" 0 1;
  Test.make ~name:"vstore copy_forward (overwrite dst slot)"
    (Staged.stage (fun () -> Vstore.Store.copy_forward store "x" ~src:0 ~dst:1))

(* Steady-state slot rotation: the advancement pattern — drop the oldest
   version, then write the next one.  Live count stays at 3, so the
   bounded store never spills and never raises. *)
let bench_slot_rotate =
  let store : int Vstore.Store.t = Vstore.Store.create ~bound:3 () in
  let v = ref 0 in
  Vstore.Store.write store "x" 0 0;
  Vstore.Store.write store "x" 1 1;
  Vstore.Store.write store "x" 2 2;
  Test.make ~name:"vstore rotate (remove oldest + write newest)"
    (Staged.stage (fun () ->
         Vstore.Store.remove_version store "x" !v;
         Vstore.Store.write store "x" (!v + 3) !v;
         incr v))

let bench_mvcc_chain_read =
  let store : int Vstore.Store.t = Vstore.Store.create () in
  for v = 0 to 63 do
    Vstore.Store.write store "x" v v
  done;
  Test.make ~name:"vstore read_le (64-version MVCC chain)"
    (Staged.stage (fun () -> ignore (Vstore.Store.read_le store "x" 0)))

let bench_zipf =
  let z = Workload.Zipf.create ~n:10_000 ~theta:0.9 in
  let rng = Sim.Rng.create 5L in
  Test.make ~name:"zipf sample (10k items)"
    (Staged.stage (fun () -> ignore (Workload.Zipf.sample z rng)))

(* moveToFuture cost under both recovery schemes, 8 touched items. *)
let mtf_once kind =
  let store : int Vstore.Store.t = Vstore.Store.create ~bound:3 () in
  let log = Wal.Log.create () in
  let scheme = Wal.Scheme.create kind ~store ~log in
  for i = 0 to 7 do
    Vstore.Store.write store (Printf.sprintf "k%d" i) 0 i
  done;
  let session = Wal.Scheme.begin_session scheme ~txn:1 ~version:1 in
  for i = 0 to 7 do
    Wal.Scheme.write scheme session (Printf.sprintf "k%d" i) (Some (i * 10))
  done;
  Wal.Scheme.move_to_future scheme session ~new_version:2;
  Wal.Scheme.commit scheme session ~final_version:2

let bench_mtf_no_undo =
  Test.make ~name:"moveToFuture no-undo (8 writes, incl. setup)"
    (Staged.stage (fun () -> mtf_once Wal.Scheme.No_undo))

let bench_mtf_undo_redo =
  Test.make ~name:"moveToFuture undo-redo (8 writes, incl. setup)"
    (Staged.stage (fun () -> mtf_once Wal.Scheme.Undo_redo))

let bench_centralized_txn =
  Test.make ~name:"centralized update transaction (sim end-to-end)"
    (Staged.stage (fun () ->
         let engine = Sim.Engine.create ~trace:false () in
         let db : int Ava3.Centralized.t =
           Ava3.Centralized.create ~engine
             ~config:
               {
                 Ava3.Config.default with
                 read_service_time = 0.0;
                 write_service_time = 0.0;
               }
             ()
         in
         Ava3.Centralized.load db [ ("x", 0) ];
         Sim.Engine.spawn engine (fun () ->
             ignore (Ava3.Centralized.run_update db ~ops:[ Write ("x", 1) ]));
         Sim.Engine.run engine))

let micro_tests =
  Test.make_grouped ~name:"micro" ~fmt:"%s %s"
    [
      bench_latch;
      bench_store_read;
      bench_store_write;
      bench_copy_forward;
      bench_slot_rotate;
      bench_mvcc_chain_read;
      bench_zipf;
      bench_mtf_no_undo;
      bench_mtf_undo_redo;
      bench_centralized_txn;
    ]

let run_micro () =
  print_endline "\n== microbenchmarks (bechamel, monotonic clock) ==";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let raw = Benchmark.all cfg instances micro_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let estimates =
    Hashtbl.fold
      (fun name ols acc ->
        match Analyze.OLS.estimates ols with
        | Some [ e ] -> (name, e) :: acc
        | _ -> acc)
      results []
    |> List.sort compare
  in
  micro_rows := estimates;
  let rows =
    List.map (fun (name, ns) -> [ name; Printf.sprintf "%.1f" ns ]) estimates
  in
  print_string
    (Dbsim.Report.render ~header:[ "operation"; "ns/run" ] ~rows)

(* ------------------------------------------------------------------ *)
(* Engine throughput: simulator events/sec on two representative loads *)
(* ------------------------------------------------------------------ *)

(* name -> (events, best wall-clock seconds, events/sec) *)
let engine_rows : (string * (int * float * float)) list ref = ref []

(* Pure scheduler churn: hundreds of processes sleeping in loops, so the
   run is dominated by heap push/pop and the effect-handler resume path.
   Event count is a pure function of the seed. *)
let engine_synthetic () =
  let engine = Sim.Engine.create ~seed:42L ~trace:false () in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  for _ = 1 to 512 do
    let first = Sim.Rng.float rng 10.0 in
    Sim.Engine.schedule engine ~delay:first (fun () ->
        for _ = 1 to 600 do
          Sim.Engine.sleep (Sim.Rng.float rng 5.0)
        done)
  done;
  engine

(* Protocol end-to-end: a 64-site cluster running periodic advancement
   rounds under a spaced update/query load — message delivery, counter
   waits, WAL appends and advancement barriers all on the hot path. *)
let engine_cluster () =
  let engine = Sim.Engine.create ~seed:7L ~trace:false () in
  let nodes = 64 in
  let db : int Ava3.Cluster.t = Ava3.Cluster.create ~engine ~nodes () in
  for n = 0 to nodes - 1 do
    Ava3.Cluster.load db ~node:n
      (List.init 8 (fun i -> (Printf.sprintf "n%d-k%d" n i, i)))
  done;
  let duration = 1000.0 in
  Ava3.Cluster.start_periodic_advancement db ~coordinator:0 ~period:20.0
    ~until:duration;
  for i = 0 to 1999 do
    let root = i mod nodes in
    let remote = (root + 1 + (i mod 7)) mod nodes in
    Sim.Engine.schedule engine
      ~delay:(0.5 +. (float_of_int i *. duration /. 2000.0))
      (fun () ->
        ignore
          (Ava3.Cluster.run_update_with_retry db ~root
             ~ops:
               [
                 Ava3.Update_exec.Write
                   { node = root; key = Printf.sprintf "n%d-k%d" root (i mod 8); value = i };
                 Ava3.Update_exec.Write
                   {
                     node = remote;
                     key = Printf.sprintf "n%d-k%d" remote (i mod 8);
                     value = i;
                   };
               ]
             ()))
  done;
  for i = 0 to 1199 do
    let root = (i * 5) mod nodes in
    Sim.Engine.schedule engine
      ~delay:(1.0 +. (float_of_int i *. duration /. 1200.0))
      (fun () ->
        ignore
          (Ava3.Cluster.run_query db ~root
             ~reads:[ (root, Printf.sprintf "n%d-k%d" root (i mod 8)) ]))
  done;
  engine

(* Time only [Engine.run]: setup (cluster creation, event scheduling)
   happens before the clock starts.  Three runs, best wall-clock —
   event counts are deterministic, so the rate is the only noisy part. *)
let timed_engine name setup =
  let best = ref infinity and events = ref 0 in
  for _ = 1 to 3 do
    let engine = setup () in
    let t0 = Unix.gettimeofday () in
    Sim.Engine.run engine;
    let dt = Unix.gettimeofday () -. t0 in
    events := Sim.Engine.events_executed engine;
    if dt < !best then best := dt
  done;
  let rate = float_of_int !events /. !best in
  engine_rows := !engine_rows @ [ (name, (!events, !best, rate)) ]

(* Crude numeric extraction: the committed baseline is machine-written
   with unique keys, so "key": <number> lookup is unambiguous. *)
let find_float_after content key =
  let klen = String.length key and n = String.length content in
  let rec search i =
    if i + klen > n then None
    else if String.sub content i klen = key then begin
      let j = ref (i + klen) in
      while !j < n && (content.[!j] = ' ' || content.[!j] = ':') do incr j done;
      let k = ref !j in
      while
        !k < n
        && (match content.[!k] with
           | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
           | _ -> false)
      do
        incr k
      done;
      if !k > !j then float_of_string_opt (String.sub content !j (!k - !j))
      else None
    end
    else search (i + 1)
  in
  search 0

let write_engine_json path =
  let oc = open_out path in
  let row f = String.concat ",\n" (List.map f !engine_rows) in
  Printf.fprintf oc
    "{\n\
    \  \"events_per_sec\": {\n%s\n  },\n\
    \  \"events\": {\n%s\n  },\n\
    \  \"wall_s\": {\n%s\n  }\n\
     }\n"
    (row (fun (name, (_, _, r)) -> Printf.sprintf "    \"%s\": %.0f" name r))
    (row (fun (name, (ev, _, _)) -> Printf.sprintf "    \"%s\": %d" name ev))
    (row (fun (name, (_, w, _)) -> Printf.sprintf "    \"%s\": %.4f" name w));
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* Soft regression report: compare against the committed baseline, print
   the delta, never fail the run — wall-clock rates are machine-relative,
   so this is a trend signal, not a gate. *)
let engine_baseline_report () =
  let baseline = "BENCH_engine_baseline.json" in
  if Sys.file_exists baseline then begin
    let ic = open_in_bin baseline in
    let content = really_input_string ic (in_channel_length ic) in
    close_in ic;
    List.iter
      (fun (name, (_, _, rate)) ->
        match find_float_after content (Printf.sprintf "\"%s\"" name) with
        | Some base when base > 0.0 ->
            let delta = (rate -. base) /. base *. 100.0 in
            Printf.printf
              "engine %-12s %10.0f events/s vs committed baseline %10.0f \
               (%+.1f%%)%s\n"
              name rate base delta
              (if delta < -20.0 then "  [soft regression: >20% below baseline]"
               else "")
        | _ -> ())
      !engine_rows
  end
  else
    Printf.printf
      "no %s present; skipping events/sec comparison\n" baseline

let run_engine () =
  print_endline "\n== engine throughput: simulator events/sec ==";
  engine_rows := [];
  timed_engine "synthetic" engine_synthetic;
  timed_engine "cluster64" engine_cluster;
  let rows =
    List.map
      (fun (name, (ev, wall, rate)) ->
        [
          name;
          string_of_int ev;
          Printf.sprintf "%.3f" wall;
          Printf.sprintf "%.0f" rate;
        ])
      !engine_rows
  in
  print_string
    (Dbsim.Report.render
       ~header:[ "load"; "events"; "best wall (s)"; "events/sec" ]
       ~rows);
  write_engine_json "BENCH_engine.json";
  engine_baseline_report ()

(* ------------------------------------------------------------------ *)
(* Multicore backend throughput: wall-clock ops/sec on real domains    *)
(* ------------------------------------------------------------------ *)

(* Unlike [bench engine] (simulated events per wall-clock second, one
   domain), this measures the lib/mcore backend executing real protocol
   operations — latched counter bumps, striped item locks, store reads
   and writes — across 1/2/4/8 domains.  Each worker performs a fixed
   per-domain operation count so the offered load scales with the
   domain count; the interesting number is how ops/sec scales. *)

let mcore_rows : (string * (int * float * float)) list ref = ref []

let mcore_sites = 4
let mcore_keys_per_site = 64

let mcore_backend () =
  let b : int Mcore.Backend.t = Mcore.Backend.create ~sites:mcore_sites () in
  for s = 0 to mcore_sites - 1 do
    Mcore.Backend.load b ~site:s
      (List.init mcore_keys_per_site (fun k ->
           (Printf.sprintf "n%d-k%d" s k, k)))
  done;
  b

(* [mk_work domains w d i] performs operation [i] of domain [d]
   ([mk_work domains] runs once per timed run, so workloads carrying
   per-run state — the per-domain Rngs feeding the Zipf sampler — start
   identically each repeat).  Wall-clock covers only the parallel
   section; backend setup and domain spawn cost stay outside.  Best of
   three runs, like [timed_engine]. *)
let timed_mcore name ~domains ~ops_per_domain mk_work =
  let best = ref infinity in
  for _ = 1 to 3 do
    let b = mcore_backend () in
    let work = mk_work domains in
    let body d () =
      let w = Mcore.Backend.worker b in
      for i = 0 to ops_per_domain - 1 do
        work w d i
      done
    in
    let t0 = Unix.gettimeofday () in
    let workers = Array.init domains (fun d -> Domain.spawn (body d)) in
    Array.iter Domain.join workers;
    let dt = Unix.gettimeofday () -. t0 in
    (match Mcore.Backend.check_quiescent b with
    | [] -> ()
    | problems ->
        List.iter (Printf.eprintf "mcore bench %s: %s\n" name) problems;
        exit 1);
    if dt < !best then best := dt
  done;
  let total = domains * ops_per_domain in
  let rate = float_of_int total /. !best in
  mcore_rows := !mcore_rows @ [ (name, (total, !best, rate)) ]

(* Key choice is Zipf-skewed (rank 0 hottest), not uniform: real traffic
   concentrates on hot keys, and hot keys are what actually contend on
   the striped item locks and latched counters.  The [Zipf.t] is an
   immutable CDF shared by all domains; each domain samples it through
   its own seeded [Sim.Rng.t], so a run's key stream is deterministic
   per (domain, seed) regardless of interleaving. *)
let mcore_zipf_theta = 0.9

let mcore_mk_read_heavy domains =
  let zipf =
    Workload.Zipf.create ~n:mcore_keys_per_site ~theta:mcore_zipf_theta
  in
  let rngs =
    Array.init domains (fun d -> Sim.Rng.create (Int64.of_int (0x5eed + d)))
  in
  fun w d i ->
    let rng = rngs.(d) in
    let root = i mod mcore_sites in
    let k = Printf.sprintf "n%d-k%d" root (Workload.Zipf.sample zipf rng) in
    let k' =
      Printf.sprintf "n%d-k%d"
        ((root + 1) mod mcore_sites)
        (Workload.Zipf.sample zipf rng)
    in
    ignore
      (Mcore.Backend.run_query w ~root
         ~reads:[ (root, k); ((root + 1) mod mcore_sites, k') ]
        : int Mcore.Backend.query_result)

(* 5% updates in the read stream (same Zipf-hot keys, so writers collide
   with readers where it matters), with domain 0 initiating an
   advancement every 512 operations so versions actually move. *)
let mcore_mk_mixed domains =
  let read_heavy = mcore_mk_read_heavy domains in
  let zipf =
    Workload.Zipf.create ~n:mcore_keys_per_site ~theta:mcore_zipf_theta
  in
  let rngs =
    Array.init domains (fun d -> Sim.Rng.create (Int64.of_int (0xdeed + d)))
  in
  fun w d i ->
    if d = 0 && i mod 512 = 0 then
      ignore
        (Mcore.Backend.advance w ~coordinator:0 : [ `Busy | `Completed of int ])
    else if i mod 20 = 0 then begin
      let root = i mod mcore_sites in
      let k =
        Printf.sprintf "n%d-k%d" root (Workload.Zipf.sample zipf rngs.(d))
      in
      ignore
        (Mcore.Backend.run_update w ~root
           ~ops:[ (root, Mcore.Backend.Write (k, i)) ]
          : int Mcore.Backend.outcome)
    end
    else read_heavy w d i

let write_mcore_json path =
  let oc = open_out path in
  let row f = String.concat ",\n" (List.map f !mcore_rows) in
  Printf.fprintf oc
    "{\n\
    \  \"ops_per_sec\": {\n%s\n  },\n\
    \  \"ops\": {\n%s\n  },\n\
    \  \"wall_s\": {\n%s\n  },\n\
    \  \"cores\": %d\n\
     }\n"
    (row (fun (name, (_, _, r)) -> Printf.sprintf "    \"%s\": %.0f" name r))
    (row (fun (name, (ops, _, _)) -> Printf.sprintf "    \"%s\": %d" name ops))
    (row (fun (name, (_, w, _)) -> Printf.sprintf "    \"%s\": %.4f" name w))
    (Domain.recommended_domain_count ());
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* Soft gates, mirroring [engine_baseline_report]: wall-clock rates are
   machine-relative and this repo's CI runners vary, so both the
   baseline comparison and the scaling check print trend signals and
   never fail the run. *)
let mcore_baseline_report () =
  let baseline = "BENCH_mcore_baseline.json" in
  if Sys.file_exists baseline then begin
    let ic = open_in_bin baseline in
    let content = really_input_string ic (in_channel_length ic) in
    close_in ic;
    List.iter
      (fun (name, (_, _, rate)) ->
        match find_float_after content (Printf.sprintf "\"%s\"" name) with
        | Some base when base > 0.0 ->
            let delta = (rate -. base) /. base *. 100.0 in
            Printf.printf
              "mcore %-8s %10.0f ops/s vs committed baseline %10.0f (%+.1f%%)%s\n"
              name rate base delta
              (if delta < -20.0 then "  [soft regression: >20% below baseline]"
               else "")
        | _ -> ())
      !mcore_rows
  end
  else
    Printf.printf "no %s present; skipping ops/sec comparison\n" baseline

let mcore_scaling_report () =
  (* Read-heavy throughput should be monotonic from 1 to 4 domains — but
     only where the hardware can actually run 4 domains in parallel.
     On smaller machines (including this repo's 1-core CI tier) the
     check prints what it sees and stays advisory. *)
  let rate name =
    match List.assoc_opt name !mcore_rows with
    | Some (_, _, r) -> r
    | None -> 0.0
  in
  let r1 = rate "read1" and r2 = rate "read2" and r4 = rate "read4" in
  let cores = Domain.recommended_domain_count () in
  if cores >= 4 then begin
    if r1 <= r2 && r2 <= r4 then
      Printf.printf "mcore scaling: read-heavy monotonic 1->2->4 domains OK\n"
    else
      Printf.printf
        "mcore scaling: NOT monotonic (%.0f -> %.0f -> %.0f ops/s on %d \
         cores) [soft: investigate]\n"
        r1 r2 r4 cores
  end
  else
    Printf.printf
      "mcore scaling: %d core(s) available; monotonicity check skipped \
       (%.0f -> %.0f -> %.0f ops/s)\n"
      cores r1 r2 r4

let run_mcore_bench () =
  print_endline "\n== mcore backend: wall-clock throughput on real domains ==";
  mcore_rows := [];
  let ops = try int_of_string (Sys.getenv "AVA3_MCORE_OPS") with _ -> 30_000 in
  List.iter
    (fun domains ->
      timed_mcore
        (Printf.sprintf "read%d" domains)
        ~domains ~ops_per_domain:ops mcore_mk_read_heavy)
    [ 1; 2; 4; 8 ];
  List.iter
    (fun domains ->
      timed_mcore
        (Printf.sprintf "mixed%d" domains)
        ~domains ~ops_per_domain:ops mcore_mk_mixed)
    [ 1; 4 ];
  let rows =
    List.map
      (fun (name, (ops, wall, rate)) ->
        [
          name;
          string_of_int ops;
          Printf.sprintf "%.3f" wall;
          Printf.sprintf "%.2f" (rate /. 1e6);
        ])
      !mcore_rows
  in
  print_string
    (Dbsim.Report.render
       ~header:[ "workload"; "ops"; "best wall (s)"; "Mops/s" ]
       ~rows);
  write_mcore_json "BENCH_mcore.json";
  mcore_baseline_report ();
  mcore_scaling_report ()

(* ------------------------------------------------------------------ *)
(* Secondary index: probe vs full scan, and maintenance overhead       *)
(* ------------------------------------------------------------------ *)

(* Direct wall-clock timing (bechamel is overkill for these loops): a
   populated three-slot store with an attached index, measuring the
   read-path win (probe vs full scan at the same version) and the
   write-path cost (store writes with and without the index listener).
   Recorded for BENCH_index.json and the --json "index" key. *)
let index_rows : (string * float) list ref = ref []

let index_bench_keys = 4096
let index_extract = Baseline.Ava3_db.default_extract

let timed_ns name ~iters f =
  let t0 = Unix.gettimeofday () in
  for i = 0 to iters - 1 do
    f i
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let ns = dt /. float_of_int iters *. 1e9 in
  index_rows := !index_rows @ [ (name, ns) ];
  ns

let populated_store () =
  let store : int Vstore.Store.t = Vstore.Store.create ~bound:3 () in
  for i = 0 to index_bench_keys - 1 do
    Vstore.Store.write store (Printf.sprintf "k%06d" i) 0 i
  done;
  store

let run_index_bench () =
  print_endline "\n== secondary index: probe vs full scan, maintenance ==";
  index_rows := [];
  let store = populated_store () in
  let ix = Vindex.Index.attach store ~extract:index_extract in
  (* ~4 matches per attribute value out of 4096 keys: the selective-probe
     regime the index exists for. *)
  ignore
    (timed_ns "probe (selective, 4k keys)" ~iters:2000 (fun i ->
         let a = Printf.sprintf "a%03d" (i mod 1000) in
         ignore (Vindex.Index.probe ix ~lo:a ~hi:a 0)));
  ignore
    (timed_ns "full scan (same predicate)" ~iters:50 (fun i ->
         let a = Printf.sprintf "a%03d" (i mod 1000) in
         ignore (Vindex.Index.full_scan ix ~lo:a ~hi:a 0)));
  ignore
    (timed_ns "probe (10% range)" ~iters:500 (fun i ->
         let lo = Printf.sprintf "a%03d" (i mod 900) in
         let hi = Printf.sprintf "a%03d" ((i mod 900) + 100) in
         ignore (Vindex.Index.probe ix ~lo ~hi 0)));
  Vindex.Index.detach ix;
  (* Write-path overhead: the same overwrite loop with no listener, then
     with the index maintaining itself through the listener. *)
  let bare = populated_store () in
  let plain =
    timed_ns "store write (no index)" ~iters:20_000 (fun i ->
        Vstore.Store.write bare (Printf.sprintf "k%06d" (i mod index_bench_keys)) 0 i)
  in
  let indexed_store = populated_store () in
  let ix2 = Vindex.Index.attach indexed_store ~extract:index_extract in
  let with_ix =
    timed_ns "store write (indexed)" ~iters:20_000 (fun i ->
        Vstore.Store.write indexed_store
          (Printf.sprintf "k%06d" (i mod index_bench_keys))
          0 i)
  in
  Vindex.Index.detach ix2;
  index_rows :=
    !index_rows @ [ ("maintenance overhead ns/write", with_ix -. plain) ];
  let rows =
    List.map
      (fun (name, ns) -> [ name; Printf.sprintf "%.1f" ns ])
      !index_rows
  in
  print_string (Dbsim.Report.render ~header:[ "operation"; "ns/run" ] ~rows);
  let oc = open_out "BENCH_index.json" in
  Printf.fprintf oc "{\n  \"index_ns_per_run\": {\n%s\n  }\n}\n"
    (String.concat ",\n"
       (List.map
          (fun (name, ns) -> Printf.sprintf "    \"%s\": %.1f" name ns)
          !index_rows));
  close_out oc;
  print_endline "wrote BENCH_index.json"

(* Schedule exploration (lib/check): per-scenario coverage statistics,
   recorded for the JSON dump under "check".  Self-verifying like the
   other suites — a violation in a clean scenario fails the run. *)
let check_stats : (string * Explorer.stats) list ref = ref []

let run_check () =
  let budget = 2_000 in
  let rows =
    List.map
      (fun sc ->
        let r = Explorer.explore ~budget sc in
        check_stats := !check_stats @ [ (r.Explorer.scenario, r.Explorer.stats) ];
        (match r.Explorer.violation with
        | Some v ->
            Printf.eprintf "check %s found a violation:\n" r.Explorer.scenario;
            List.iter (fun m -> Printf.eprintf "  %s\n" m) v.Explorer.v_messages;
            exit 1
        | None -> ());
        let s = r.Explorer.stats in
        [
          sc.Scenario.name;
          string_of_int s.Explorer.schedules;
          string_of_int s.Explorer.completed;
          string_of_int s.Explorer.pruned;
          string_of_int s.Explorer.distinct_states;
          string_of_int s.Explorer.max_depth;
          string_of_bool s.Explorer.exhausted;
        ])
      Scenarios.must_clear
  in
  print_endline
    (Dbsim.Report.render
       ~header:
         [
           "scenario"; "schedules"; "completed"; "pruned"; "distinct";
           "max-depth"; "exhausted";
         ]
       ~rows);
  (* Conviction self-tests: every deliberately broken twin in the
     registry must be caught within its budget — if the explorer stops
     finding these bugs, the oracles have gone blind. *)
  List.iter
    (fun { Scenarios.buggy; budget; _ } ->
      let r = Explorer.explore ~budget buggy in
      check_stats := !check_stats @ [ (r.Explorer.scenario, r.Explorer.stats) ];
      match r.Explorer.violation with
      | Some v ->
          Printf.printf "check %s: convicted as expected (%s)\n"
            buggy.Scenario.name
            (match v.Explorer.v_messages with m :: _ -> m | [] -> "")
      | None ->
          Printf.eprintf "check %s: NO violation found but one was expected\n"
            buggy.Scenario.name;
          exit 1)
    Scenarios.registry

(* The deterministic suites come from Dbsim.Experiment.suites; the
   explorer coverage and the wall-clock benchmarks live here. *)
let suites =
  Dbsim.Experiment.suites
  @ [
      ("check", run_check);
      ("index", run_index_bench);
      ("micro", run_micro);
      ("engine", run_engine);
      ("mcore", run_mcore_bench);
    ]

(* ------------------------------------------------------------------ *)
(* Driver: per-suite wall-clock, optional JSON dump                    *)
(* ------------------------------------------------------------------ *)

let timed name run =
  let t0 = Unix.gettimeofday () in
  run ();
  let dt = Unix.gettimeofday () -. t0 in
  suite_times := !suite_times @ [ (name, dt) ];
  Printf.printf "[%s: %.2fs wall-clock]\n%!" name dt

let write_json path =
  let field (name, v) =
    Printf.sprintf "    \"%s\": %g" (Dbsim.Report.json_escape name) v
  in
  let obj fields = String.concat ",\n" (List.map field fields) in
  let oc = open_out path in
  (* Per-node protocol metrics (commits/aborts by reason, moveToFutures,
     advancement phase durations, RPC latency histograms) for every
     experiment configuration that ran, sorted — see Dbsim.Report. *)
  let metrics_json =
    Dbsim.Report.metrics_to_json (Dbsim.Report.metrics_records ())
  in
  let check_json =
    let one (name, (s : Explorer.stats)) =
      Printf.sprintf
        "    \"%s\": {\"schedules\": %d, \"completed\": %d, \"pruned\": %d, \
         \"distinct_states\": %d, \"choice_points\": %d, \"max_depth\": %d, \
         \"exhausted\": %b, \"elapsed_s\": %g}"
        (Dbsim.Report.json_escape name) s.Explorer.schedules s.Explorer.completed
        s.Explorer.pruned s.Explorer.distinct_states s.Explorer.choice_points
        s.Explorer.max_depth s.Explorer.exhausted s.Explorer.elapsed_s
    in
    match !check_stats with
    | [] -> "{}"
    | stats -> "{\n" ^ String.concat ",\n" (List.map one stats) ^ "\n  }"
  in
  (* Every suite owns one stable top-level key, so downstream tooling can
     key on suite names without parsing row labels: "micro_ns_per_run",
     "index", "suite_wall_clock_s", "check", "experiments". *)
  Printf.fprintf oc
    "{\n\
    \  \"domains\": %d,\n\
    \  \"micro_ns_per_run\": {\n%s\n  },\n\
    \  \"index\": {\n%s\n  },\n\
    \  \"suite_wall_clock_s\": {\n%s\n  },\n\
    \  \"check\": %s,\n\
    \  \"experiments\": %s\n\
     }\n"
    (Sim.Pool.default_domains ())
    (obj !micro_rows) (obj !index_rows) (obj !suite_times) check_json
    metrics_json;
  close_out oc;
  Printf.printf "wrote %s\n%!" path

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let names, flags = List.partition (fun a -> a.[0] <> '-') args in
  List.iter
    (fun f ->
      if f = "--json" then json_mode := true
      else begin
        Printf.eprintf "usage: %s [--json] [experiment]\n" Sys.argv.(0);
        exit 2
      end)
    flags;
  (* Every suite below builds its configs as [{ Config.default with ... }];
     validating the base record here fails the whole binary fast if a
     default ever goes nonsensical, and per-suite overrides are validated
     again by [Cluster.create]. *)
  Ava3.Config.validate Ava3.Config.default;
  Printf.printf "parallel sweep domains: %d (override with AVA3_DOMAINS)\n%!"
    (Sim.Pool.default_domains ());
  (match names with
  | [] ->
      List.iter
        (fun (name, run) ->
          Printf.printf "\n###### %s ######\n%!" name;
          timed name run)
        suites
  | names ->
      List.iter
        (fun name ->
          match List.assoc_opt name suites with
          | Some run -> timed name run
          | None ->
              Printf.eprintf "unknown experiment %S; available: %s\n" name
                (String.concat ", " (List.map fst suites));
              exit 2)
        names);
  if !json_mode then write_json "BENCH_micro.json"
