(* avasim — run a configurable workload against a chosen protocol.

   Examples:
     avasim --protocol ava3 --nodes 5 --duration 3000 --update-rate 0.3
     avasim --protocol mvcc --theta 1.0 --long-query-period 100
     avasim --protocol ava3 --scheme undo-redo --advancement-period 50 --seed 7 *)

open Cmdliner

type protocol = Ava3_p | S2pl_p | Two_version_p | Mvcc_p | Four_version_p

let protocol_conv =
  let parse = function
    | "ava3" -> Ok Ava3_p
    | "s2pl" -> Ok S2pl_p
    | "two-version" | "2v" -> Ok Two_version_p
    | "mvcc" -> Ok Mvcc_p
    | "four-version" | "4v" -> Ok Four_version_p
    | s -> Error (`Msg (Printf.sprintf "unknown protocol %S" s))
  in
  let print ppf p =
    Format.pp_print_string ppf
      (match p with
      | Ava3_p -> "ava3"
      | S2pl_p -> "s2pl"
      | Two_version_p -> "two-version"
      | Mvcc_p -> "mvcc"
      | Four_version_p -> "four-version")
  in
  Arg.conv (parse, print)

let scheme_conv =
  let parse = function
    | "no-undo" -> Ok Wal.Scheme.No_undo
    | "undo-redo" -> Ok Wal.Scheme.Undo_redo
    | s -> Error (`Msg (Printf.sprintf "unknown scheme %S" s))
  in
  let print ppf k = Format.pp_print_string ppf (Wal.Scheme.kind_name k) in
  Arg.conv (parse, print)

(* A number that fails [ok] is a command-line error (exit 124), like an
   unparsable one: a run over it would simulate nothing or crash. *)
let bounded conv ~ok ~what =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "value must be %s (got %s)" what s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_int = bounded Arg.int ~ok:(fun n -> n >= 1) ~what:">= 1"
let positive_float = bounded Arg.float ~ok:(fun x -> x > 0.0) ~what:"> 0"
let rate = bounded Arg.float ~ok:(fun x -> x >= 0.0) ~what:">= 0"

let run protocol scheme nodes duration seed update_rate query_rate theta
    keys_per_node advancement_period long_query_period long_query_reads
    remote_fraction eager piggyback use_tree verbose =
  let engine = Sim.Engine.create ~seed:(Int64.of_int seed) ~trace:false () in
  let ks = Workload.Keyspace.create ~nodes ~keys_per_node ~theta in
  let rng = Sim.Rng.split (Sim.Engine.rng engine) in
  let spec =
    {
      Workload.Driver.default_spec with
      duration;
      update_rate;
      query_rate;
      remote_fraction;
      long_query_period;
      long_query_reads;
    }
  in
  let preload load db =
    for n = 0 to nodes - 1 do
      load db ~node:n
        (List.map (fun k -> (k, 0)) (Workload.Keyspace.all_keys ks ~node:n))
    done
  in
  let go (type db) (module Db : Workload.Db_intf.DB with type t = db) (db : db) =
    let report = Workload.Driver.run (module Db) db ~engine ~rng ~keyspace:ks ~spec in
    let name =
      match protocol with Four_version_p -> "four-version-sync" | _ -> Db.name
    in
    Format.printf "protocol: %s, %d nodes, duration %.0f, seed %d@." name nodes
      duration seed;
    Format.printf "%a@." Workload.Driver.pp_report report;
    Format.printf "max versions of any item: %d@." (Db.max_versions_ever db);
    if verbose then
      List.iter
        (fun (k, v) -> Format.printf "  %-20s %.1f@." k v)
        (Db.extra_stats db)
  in
  match protocol with
  | Ava3_p ->
      let config =
        {
          Ava3.Config.default with
          scheme;
          eager_counter_handoff = eager;
          piggyback_version = piggyback;
        }
      in
      let db =
        Baseline.Ava3_db.create ~engine ~config ~advancement_period
          ~advancement_until:duration ~use_tree ~nodes ()
      in
      preload Baseline.Ava3_db.load db;
      go (module Baseline.Ava3_db) db;
      (match Ava3.Cluster.check_invariants (Baseline.Ava3_db.cluster db) with
      | [] -> Format.printf "invariants: OK@."
      | vs -> List.iter (Format.printf "invariant violation: %s@.") vs)
  | S2pl_p ->
      let db = Baseline.S2pl.create ~engine ~nodes () in
      preload Baseline.S2pl.load db;
      go (module Baseline.S2pl) db
  | Two_version_p ->
      let db = Baseline.Two_version.create ~engine ~nodes () in
      preload Baseline.Two_version.load db;
      go (module Baseline.Two_version) db
  | Mvcc_p ->
      let db = Baseline.Mvcc.create ~engine ~nodes () in
      preload Baseline.Mvcc.load db;
      go (module Baseline.Mvcc) db
  | Four_version_p ->
      let db =
        Baseline.Ava3_db.create ~engine ~config:Baseline.Ava3_db.four_version
          ~advancement_period ~advancement_until:duration ~nodes ()
      in
      preload Baseline.Ava3_db.load db;
      go (module Baseline.Ava3_db) db

let cmd =
  let protocol =
    Arg.(
      value
      & opt protocol_conv Ava3_p
      & info [ "p"; "protocol" ] ~docv:"PROTOCOL"
          ~doc:"Protocol: ava3, s2pl, two-version, mvcc, four-version.")
  in
  let scheme =
    Arg.(
      value
      & opt scheme_conv Wal.Scheme.No_undo
      & info [ "scheme" ] ~docv:"SCHEME"
          ~doc:"Recovery scheme for ava3: no-undo or undo-redo.")
  in
  let nodes =
    Arg.(
      value & opt positive_int 3 & info [ "n"; "nodes" ] ~doc:"Number of sites.")
  in
  let duration =
    Arg.(
      value & opt positive_float 2000.0
      & info [ "d"; "duration" ] ~doc:"Virtual run time.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Random seed.") in
  let update_rate =
    Arg.(
      value & opt rate 0.25
      & info [ "update-rate" ] ~doc:"Mean update transactions per time unit.")
  in
  let query_rate =
    Arg.(
      value & opt rate 0.15
      & info [ "query-rate" ] ~doc:"Mean queries per time unit.")
  in
  let theta =
    Arg.(value & opt float 0.8 & info [ "theta" ] ~doc:"Zipf skew of key access.")
  in
  let keys_per_node =
    Arg.(
      value & opt positive_int 80 & info [ "keys" ] ~doc:"Data items per node.")
  in
  let advancement_period =
    Arg.(
      value & opt float 100.0
      & info [ "advancement-period" ]
          ~doc:"Version advancement period (ava3/four-version).")
  in
  let long_query_period =
    Arg.(
      value & opt float 0.0
      & info [ "long-query-period" ]
          ~doc:"Period of long decision-support queries (0 = none).")
  in
  let long_query_reads =
    Arg.(
      value & opt int 50
      & info [ "long-query-reads" ] ~doc:"Reads per long query.")
  in
  let remote_fraction =
    Arg.(
      value & opt float 0.3
      & info [ "remote-fraction" ]
          ~doc:"Probability an update op touches a non-root node.")
  in
  let eager =
    Arg.(
      value & flag
      & info [ "eager-handoff" ] ~doc:"Enable the §8 eager counter hand-off.")
  in
  let piggyback =
    Arg.(
      value & flag
      & info [ "piggyback" ] ~doc:"Enable §10 version piggybacking.")
  in
  let use_tree =
    Arg.(
      value & flag
      & info [ "tree" ]
          ~doc:"Execute ava3 updates through the R*-style tree executor \
                (concurrent subtransactions).")
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print protocol counters.")
  in
  let term =
    Term.(
      const run $ protocol $ scheme $ nodes $ duration $ seed $ update_rate
      $ query_rate $ theta $ keys_per_node $ advancement_period
      $ long_query_period $ long_query_reads $ remote_fraction $ eager
      $ piggyback $ use_tree $ verbose)
  in
  Cmd.v
    (Cmd.info "avasim" ~version:"1.0"
       ~doc:"Simulate workloads on the AVA3 protocol and its baselines")
    term

let () = exit (Cmd.eval cmd)
