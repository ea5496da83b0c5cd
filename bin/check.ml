(* check.exe — systematic schedule exploration over the built-in
   scenarios (lib/check).

   Default: explore every must-clear scenario, writing a replayable
   counterexample file for each violation, then convict every entry of
   the mutant registry within its budget; exit 1 if anything failed.
   [--scenario NAME] explores one scenario instead; [--replay FILE]
   re-runs a counterexample file; with either, [--expect-violation]
   inverts the exit sense (finding the bug is the passing outcome). *)

let budget = ref 10_000
let max_depth = ref 400
let scenario = ref ""
let replay_file = ref ""
let out_file = ref ""
let list_only = ref false
let no_prune = ref false
let no_minimize = ref false
let expect_violation = ref false
let min_schedules = ref 0
let quiet = ref false

let specs =
  [
    ("--budget", Arg.Set_int budget, "N  max runs per scenario (default 10000)");
    ( "--max-depth",
      Arg.Set_int max_depth,
      "N  deepest choice point to branch at (default 400)" );
    ("--scenario", Arg.Set_string scenario, "NAME  explore one scenario only");
    ( "--replay",
      Arg.Set_string replay_file,
      "FILE  replay a counterexample file instead of exploring" );
    ( "--out",
      Arg.Set_string out_file,
      "FILE  counterexample output path (default counterexample-<name>.txt)" );
    ("--list", Arg.Set list_only, " list scenarios and exit");
    ("--no-prune", Arg.Set no_prune, " disable fingerprint pruning");
    ( "--no-minimize",
      Arg.Set no_minimize,
      " report the raw violating schedule without minimizing" );
    ( "--expect-violation",
      Arg.Set expect_violation,
      " with --scenario or --replay: exit 0 iff a violation IS found" );
    ( "--min-schedules",
      Arg.Set_int min_schedules,
      "N  fail unless at least N schedules were explored (CI gate)" );
    ("--quiet", Arg.Set quiet, " suppress per-run detail, print verdicts only");
  ]

let usage = "check.exe [options]\nSystematic schedule explorer for AVA3."

let say fmt = Printf.ksprintf (fun s -> if not !quiet then print_endline s) fmt

let report_violation (sc : Scenario.t) (v : Explorer.violation) =
  Printf.printf "VIOLATION in %s:\n" sc.name;
  List.iter (fun m -> Printf.printf "  %s\n" m) v.v_messages;
  Printf.printf "  minimized schedule (%d decisions):\n"
    (List.length v.v_decisions);
  List.iteri
    (fun i (d : Explorer.decision) ->
      Printf.printf "    %2d. %s -> %d (of %d)\n" i d.label d.index d.arity)
    v.v_decisions;
  let path =
    if !out_file <> "" then !out_file
    else Printf.sprintf "counterexample-%s.txt" sc.name
  in
  Counterexample.save ~path ~scenario:sc.name
    ~decisions:
      (List.map
         (fun (d : Explorer.decision) -> (d.index, d.label))
         v.v_decisions)
    ~messages:v.v_messages;
  Printf.printf "  counterexample written to %s (replay: check.exe --replay %s)\n"
    path path

let explore_one (sc : Scenario.t) =
  say "exploring %-16s %s" sc.name sc.descr;
  let result =
    Explorer.explore ~budget:!budget ~max_depth:!max_depth
      ~prune:(not !no_prune)
      ~minimize_violation:(not !no_minimize)
      sc
  in
  say "  %s" (Format.asprintf "%a" Explorer.pp_stats result.stats);
  if !min_schedules > 0 && result.stats.schedules < !min_schedules then begin
    Printf.printf
      "FAIL %s: only %d schedules explored (--min-schedules %d)\n" sc.name
      result.stats.schedules !min_schedules;
    exit 1
  end;
  match result.violation with
  | None ->
      say "  ok: no violation within budget";
      false
  | Some v ->
      report_violation sc v;
      true

(* A registry entry passes when its buggy scenario is convicted within
   the entry's own budget. *)
let convict { Scenarios.buggy; budget; _ } =
  let result =
    Explorer.explore ~budget ~max_depth:!max_depth ~prune:(not !no_prune)
      ~minimize_violation:false buggy
  in
  match result.violation with
  | Some v ->
      say "convicted %s: %s" buggy.name (String.concat "; " v.v_messages);
      true
  | None ->
      Printf.printf "FAIL %s: not convicted within %d schedules\n" buggy.name
        budget;
      false

let run_replay path =
  let ce = Counterexample.load ~path in
  match Scenarios.find ce.scenario with
  | None ->
      Printf.eprintf "unknown scenario %S in %s\n" ce.scenario path;
      exit 2
  | Some sc ->
      Printf.printf "replaying %s (%d decisions) against %s\n" path
        (List.length ce.decisions) sc.name;
      let out = Explorer.replay sc ce.decisions in
      List.iter (fun l -> if not !quiet then print_endline ("  | " ^ l)) out.r_trace;
      List.iteri
        (fun i (d : Explorer.decision) ->
          Printf.printf "  %2d. %s -> %d (of %d)\n" i d.label d.index d.arity)
        out.r_decisions;
      (match out.r_fingerprint with
      | Some fp ->
          Printf.printf "  final state fingerprint: %s\n"
            (Fingerprint.to_hex fp)
      | None -> ());
      if out.r_messages = [] then begin
        Printf.printf "replay is clean: no violation reproduced\n";
        if !expect_violation then exit 1
      end
      else begin
        Printf.printf "replay reproduces the violation:\n";
        List.iter (fun m -> Printf.printf "  %s\n" m) out.r_messages;
        if not !expect_violation then exit 1
      end

let () =
  let reject fmt =
    Printf.ksprintf
      (fun msg ->
        prerr_endline msg;
        Arg.usage specs usage;
        exit 2)
      fmt
  in
  Arg.parse specs (reject "unexpected argument %S") usage;
  if !budget < 1 then reject "--budget must be >= 1 (got %d)" !budget;
  if !max_depth < 1 then
    reject "--max-depth must be >= 1 (got %d)" !max_depth;
  if !list_only then begin
    List.iter
      (fun (sc : Scenario.t) ->
        Printf.printf "%-16s %s\n" sc.name sc.descr)
      Scenarios.all;
    exit 0
  end;
  if !replay_file <> "" then begin
    run_replay !replay_file;
    exit 0
  end;
  let scenarios =
    if !scenario <> "" then begin
      match Scenarios.find !scenario with
      | Some sc -> [ sc ]
      | None ->
          Printf.eprintf "unknown scenario %S (try --list)\n" !scenario;
          exit 2
    end
    else Scenarios.must_clear
  in
  let violations = List.length (List.filter explore_one scenarios) in
  let missed =
    if !scenario <> "" then 0
    else List.length (List.filter (fun e -> not (convict e)) Scenarios.registry)
  in
  if !expect_violation then
    if violations > 0 then begin
      Printf.printf "expected violation found\n";
      exit 0
    end
    else begin
      Printf.printf "FAIL: no violation found but one was expected\n";
      exit 1
    end
  else if violations + missed > 0 then exit 1
  else say "all scenarios clean"
