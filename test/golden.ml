(* Golden output of every deterministic suite of the bench harness.

   Usage: golden.exe PATH/TO/bench/main.exe PATH/TO/bin/stress.exe

   Runs each suite of [Dbsim.Experiment.suites], then the explorer's
   [check], as [main.exe --json SUITE] in a scratch directory and
   prints, per suite, its stdout (the per-run banner and
   wall-clock lines dropped) followed by one line per metrics record of
   BENCH_micro.json: the record's experiment and label, then the MD5 of
   the whole record.  The only wall-clock column of these suites, E12's
   events/s, is masked.  Then it prints the aggregate lines of three
   chaos runs, [stress.exe --seeds 20] plain, with [--index] and with
   [--sessions], which drive group commit, index selects and savepoint
   rollbacks under a nemesis.  test/dune diffs the result against
   golden/experiments.expected, so a refactor that changes any table
   cell, check line, explorer count, metrics counter or stress
   aggregate fails [dune runtest]. *)

let suites = List.map fst Dbsim.Experiment.suites @ [ "check" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The harness's own lines, which carry the host's domain count and
   wall-clock time. *)
let harness_line l =
  String.starts_with ~prefix:"parallel sweep domains:" l
  || String.starts_with ~prefix:"[" l
     && String.ends_with ~suffix:"s wall-clock]" l
  || String.starts_with ~prefix:"wrote " l

(* In the E12 table, replace the last cell of every data row (below the
   dashed rule, up to the blank line ending the table). *)
let mask_e12 lines =
  let rec go state = function
    | [] -> []
    | l :: rest -> (
        match state with
        | `Out when String.starts_with ~prefix:"== E12:" l ->
            l :: go `Header rest
        | `Header when String.starts_with ~prefix:"---" l ->
            l :: go `Rows rest
        | `Rows when l <> "" ->
            let cut = String.rindex l ' ' in
            (String.sub l 0 (cut + 1) ^ "<wall-clock>") :: go `Rows rest
        | `Rows -> l :: go `Out rest
        | _ -> l :: go state rest)
  in
  go `Out lines

(* Split the "experiments" array of BENCH_micro.json into the source text
   of its top-level objects. *)
let metrics_records json =
  let key = "\"experiments\": [" in
  let start =
    let rec find i =
      if String.sub json i (String.length key) = key then i + String.length key
      else find (i + 1)
    in
    find 0
  in
  let records = ref [] and depth = ref 0 and obj_start = ref 0 in
  let in_string = ref false and escaped = ref false in
  let i = ref start in
  while !depth >= 0 do
    let c = json.[!i] in
    (if !in_string then
       if !escaped then escaped := false
       else if c = '\\' then escaped := true
       else if c = '"' then in_string := false
       else ()
     else
       match c with
       | '"' -> in_string := true
       | '{' | '[' ->
           if !depth = 0 then obj_start := !i;
           incr depth
       | '}' | ']' ->
           decr depth;
           if !depth = 0 then
             records :=
               String.sub json !obj_start (!i - !obj_start + 1) :: !records
       | _ -> ());
    incr i
  done;
  List.rev !records

let record_line r =
  let key = ",\"nodes\":" in
  let rec find i =
    if String.sub r i (String.length key) = key then i else find (i + 1)
  in
  Printf.sprintf "metrics %s} %s" (String.sub r 0 (find 0))
    (Digest.to_hex (Digest.string r))

(* Run [exe args] in a scratch directory; return its stdout and the
   BENCH_micro.json it wrote ("" if none), exiting on a failed run. *)
let run_in_scratch exe args =
  let dir = Filename.temp_dir "golden" "" in
  let out = Filename.concat dir "stdout" in
  let cmd =
    Printf.sprintf "cd %s && %s %s > stdout" (Filename.quote dir)
      (Filename.quote exe) args
  in
  let status = Sys.command cmd in
  let stdout = read_file out in
  let json_path = Filename.concat dir "BENCH_micro.json" in
  let json = if Sys.file_exists json_path then read_file json_path else "" in
  Sys.remove out;
  if Sys.file_exists json_path then Sys.remove json_path;
  Sys.rmdir dir;
  if status <> 0 then begin
    print_string stdout;
    Printf.eprintf "golden: %s %s exited with status %d\n"
      (Filename.basename exe) args status;
    exit 1
  end;
  (stdout, json)

let run_suite bench suite =
  let stdout, json = run_in_scratch bench ("--json " ^ Filename.quote suite) in
  Printf.printf "###### %s ######\n" suite;
  String.split_on_char '\n' stdout
  |> List.filter (fun l -> not (harness_line l))
  |> mask_e12
  |> List.iter print_endline;
  List.iter (fun r -> print_endline (record_line r)) (metrics_records json)

let run_stress stress args =
  let stdout, _ = run_in_scratch stress args in
  Printf.printf "###### stress %s ######\n%s" args stdout

let () =
  match Sys.argv with
  | [| _; bench; stress |] ->
      let absolute p =
        if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
      in
      List.iter (run_suite (absolute bench)) suites;
      List.iter
        (run_stress (absolute stress))
        [ "--seeds 20"; "--seeds 20 --index"; "--seeds 20 --sessions" ]
  | _ ->
      prerr_endline
        "usage: golden.exe PATH/TO/bench/main.exe PATH/TO/bin/stress.exe";
      exit 2
