(* Reproduction harness.

   `dune exec bench/main.exe [--json] [suite...]` runs the named suites,
   or every suite in order:
     table1 ... e15smoke — the deterministic suites of
                   Dbsim.Experiment.suites: the Table 1 and Figure 1
                   replays, Theorem 6.2 serializability, and the E3–E15
                   experiment tables (EXPERIMENTS.md)
     check       — schedule-explorer coverage and conviction self-tests
     mcore       — multicore backend ops/sec at 1, 2, 4 and 8 domains

   `--json` additionally writes BENCH_micro.json (per-suite wall-clock,
   explorer statistics, and the per-node metrics registry of every
   experiment configuration under "experiments") for machine consumption.

   Everything else the repo measures in wall-clock time — simulator
   events/s, index costs, mcore latencies — is perfbench's (perfbench/).

   Experiment sweeps fan out over domains (see Sim.Pool); set
   AVA3_DOMAINS=1 to force sequential runs.  Results are identical at
   any domain count. *)

let json_mode = ref false
let suite_times : (string * float) list ref = ref []

(* ------------------------------------------------------------------ *)
(* Multicore backend scaling: wall-clock ops/sec across domain counts  *)
(* ------------------------------------------------------------------ *)

(* The lib/mcore backend executing real protocol operations — latched
   counter bumps, striped item locks, store reads and writes — on 1, 2,
   4 and 8 domains.  Each worker performs a fixed per-domain operation
   count, so the offered load scales with the domain count; the
   interesting number is how ops/sec scales.  Domain counts above the
   host's core count are skipped: domains sharing a core measure the
   scheduler, not the backend. *)

let mcore_sites = 4
let mcore_keys_per_site = 64
let mcore_ops_per_domain = 30_000

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
   section; backend setup and domain spawn cost stay outside.  Every run
   must leave the backend quiescent; the rate is the best of three. *)
let timed_mcore name ~domains mk_work =
  let best = ref infinity in
  for _ = 1 to 3 do
    let b = mcore_backend () in
    let work = mk_work domains in
    let body d () =
      let w = Mcore.Backend.worker b in
      for i = 0 to mcore_ops_per_domain - 1 do
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
  float_of_int (domains * mcore_ops_per_domain) /. !best

(* Key choice is Zipf-skewed (rank 0 hottest), not uniform: real traffic
   concentrates on hot keys, and hot keys are what actually contend on
   the striped item locks and the store's bucket latches.  The [Zipf.t] is an
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

let run_mcore_scaling () =
  print_endline "\n== mcore backend: wall-clock ops/sec across domain counts ==";
  let cores = Domain.recommended_domain_count () in
  let counts, skipped = List.partition (fun d -> d <= cores) [ 1; 2; 4; 8 ] in
  if skipped <> [] then
    Printf.printf "skipping %s domains: more than the %d core(s) available\n"
      (String.concat ", " (List.map string_of_int skipped))
      cores;
  let rows =
    List.concat_map
      (fun (workload, mk_work) ->
        let rates =
          List.map
            (fun domains ->
              ( domains,
                timed_mcore
                  (Printf.sprintf "%s%d" workload domains)
                  ~domains mk_work ))
            counts
        in
        let one = List.assoc 1 rates in
        List.map
          (fun (domains, rate) ->
            [
              workload;
              string_of_int domains;
              Printf.sprintf "%.2f" (rate /. 1e6);
              Printf.sprintf "%.2fx" (rate /. one);
            ])
          rates)
      [ ("read", mcore_mk_read_heavy); ("mixed", mcore_mk_mixed) ]
  in
  print_string
    (Dbsim.Report.render
       ~header:[ "workload"; "domains"; "Mops/s"; "vs 1 domain" ]
       ~rows)

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
          Fingerprint.to_hex s.Explorer.states_digest;
        ])
      Scenarios.must_clear
  in
  print_endline
    (Dbsim.Report.render
       ~header:
         [
           "scenario"; "schedules"; "completed"; "pruned"; "distinct";
           "max-depth"; "exhausted"; "states";
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
   explorer coverage and the multicore scaling report live here. *)
let suites =
  Dbsim.Experiment.suites
  @ [ ("check", run_check); ("mcore", run_mcore_scaling) ]

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
         \"distinct_states\": %d, \"states_digest\": \"%s\", \
         \"choice_points\": %d, \"max_depth\": %d, \"exhausted\": %b, \
         \"elapsed_s\": %g}"
        (Dbsim.Report.json_escape name) s.Explorer.schedules s.Explorer.completed
        s.Explorer.pruned s.Explorer.distinct_states
        (Fingerprint.to_hex s.Explorer.states_digest)
        s.Explorer.choice_points s.Explorer.max_depth s.Explorer.exhausted
        s.Explorer.elapsed_s
    in
    match !check_stats with
    | [] -> "{}"
    | stats -> "{\n" ^ String.concat ",\n" (List.map one stats) ^ "\n  }"
  in
  (* Every suite owns one stable top-level key, so downstream tooling can
     key on suite names without parsing row labels: "suite_wall_clock_s",
     "check", "experiments". *)
  Printf.fprintf oc
    "{\n\
    \  \"domains\": %d,\n\
    \  \"suite_wall_clock_s\": {\n%s\n  },\n\
    \  \"check\": %s,\n\
    \  \"experiments\": %s\n\
     }\n"
    (Sim.Pool.default_domains ())
    (obj !suite_times) check_json metrics_json;
  close_out oc;
  Printf.printf "wrote %s\n%!" path

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags, names = List.partition (String.starts_with ~prefix:"-") args in
  List.iter
    (fun f ->
      if f = "--json" then json_mode := true
      else begin
        Printf.eprintf "usage: %s [--json] [suite...]\n" Sys.argv.(0);
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
              Printf.eprintf "unknown suite %S; available: %s\n" name
                (String.concat ", " (List.map fst suites));
              exit 2)
        names);
  if !json_mode then write_json "BENCH_micro.json"
