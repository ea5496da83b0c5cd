module Update = Ava3.Update_exec
module Query = Ava3.Query_exec

type event = { time : float; site : int option; text : string }

type result = { events : event list; violations : string list }

(* Initial values; updates write recognisable new values. *)
let w0 = 10 and x0 = 20 and y0 = 30 and z0 = 40
let w_t = 11 and x_t = 21 and y_s = 32 and z_t = 41 and x_u = 22

let run ?(scheme = Wal.Scheme.No_undo) () =
  let config =
    {
      Ava3.Config.default with
      scheme;
      read_service_time = 0.05;
      write_service_time = 0.0;
    }
  in
  let engine = Sim.Engine.create ~seed:1L () in
  let db : int Ava3.Cluster.t =
    Ava3.Cluster.create ~engine ~config ~latency:(Net.Latency.Constant 1.0)
      ~nodes:3 ()
  in
  (* Sites: i = 0 (w), j = 1 (x, y), k = 2 (z). *)
  Ava3.Cluster.load db ~node:0 [ ("w", w0) ];
  Ava3.Cluster.load db ~node:1 [ ("x", x0); ("y", y0) ];
  Ava3.Cluster.load db ~node:2 [ ("z", z0) ];
  let t_outcome = ref None
  and u_outcome = ref None
  and s_outcome = ref None in
  let r_result = ref None
  and q_result = ref None
  and p_result = ref None
  and final_query = ref None in
  (* T: root at i; writes w, then (via subtransactions announced early)
     z at k, y at j, and finally x at j where it collides with U. *)
  Sim.Engine.schedule engine ~delay:1.0 (fun () ->
      t_outcome :=
        Some
          (Ava3.Cluster.run_update db ~root:0
             ~ops:
               [
                 Update.Write { node = 0; key = "w"; value = w_t };
                 Update.Begin_at 1;
                 Update.Begin_at 2;
                 Update.Pause 3.0;
                 Update.Write { node = 2; key = "z"; value = z_t };
                 Update.Write { node = 1; key = "y"; value = 31 };
                 Update.Write { node = 1; key = "x"; value = x_t };
               ]));
  (* R: query at i, before anything is published. *)
  Sim.Engine.schedule engine ~delay:1.5 (fun () ->
      r_result := Some (Ava3.Cluster.run_query db ~root:0 ~reads:[ (0, "w") ]));
  (* S: starts at j before j advances, touches y only much later. *)
  Sim.Engine.schedule engine ~delay:2.5 (fun () ->
      s_outcome :=
        Some
          (Ava3.Cluster.run_update db ~root:1
             ~ops:
               [
                 Update.Pause 19.5;
                 Update.Write { node = 1; key = "y"; value = y_s };
               ]));
  (* Version advancement initiated by site k. *)
  Sim.Engine.schedule engine ~delay:3.5 (fun () ->
      match Ava3.Cluster.advance db ~coordinator:2 with
      | `Started _ -> ()
      | `Busy -> failwith "table1: advancement refused");
  (* U: arrives at j after j advanced; writes x and holds it a while. *)
  Sim.Engine.schedule engine ~delay:6.0 (fun () ->
      u_outcome :=
        Some
          (Ava3.Cluster.run_update db ~root:1
             ~ops:
               [
                 Update.Write { node = 1; key = "x"; value = x_u };
                 Update.Pause 8.5;
               ]));
  (* Q: starts at j before the query-version switch; long enough to make
     Phase 2 wait for it. *)
  Sim.Engine.schedule engine ~delay:12.0 (fun () ->
      let reads = (1, "x") :: List.init 270 (fun _ -> (1, "y")) in
      q_result := Some (Ava3.Cluster.run_query db ~root:1 ~reads));
  (* P: starts at j moments after the switch. *)
  Sim.Engine.schedule engine ~delay:24.5 (fun () ->
      p_result := Some (Ava3.Cluster.run_query db ~root:1 ~reads:[ (1, "y") ]));
  (* Epilogue: a second advancement publishes everything, then a final
     query checks the end state. *)
  Sim.Engine.schedule engine ~delay:40.0 (fun () ->
      ignore (Ava3.Cluster.advance_and_wait db ~coordinator:0);
      final_query :=
        Some
          (Ava3.Cluster.run_query db ~root:2
             ~reads:[ (0, "w"); (1, "x"); (1, "y"); (2, "z") ]));
  Sim.Engine.run engine;
  (* ---- Checks ---- *)
  let violations = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let commit_of label r =
    match !r with
    | Some (Update.Committed c) -> Some c
    | Some (Update.Aborted _ | Update.Root_down _) ->
        fail "%s aborted" label;
        None
    | None ->
        fail "%s never finished" label;
        None
  in
  let t_commit = commit_of "T" t_outcome in
  let u_commit = commit_of "U" u_outcome in
  let s_commit = commit_of "S" s_outcome in
  let trace = Sim.Trace.entries (Sim.Engine.trace engine) in
  let traced ev = List.exists (fun e -> e.Sim.Trace.event = ev) trace in
  let started txn site version =
    traced (Sim.Event.Sub_start { txn; site; version })
  and moved txn site ~at_commit =
    List.exists
      (fun e ->
        match e.Sim.Trace.event with
        | Sim.Event.Mtf m ->
            m.txn = txn && m.site = site && m.version = 2
            && m.at_commit = at_commit
        | _ -> false)
      trace
  in
  let check_query label r ~version ~values =
    match !r with
    | None -> fail "query %s never finished" label
    | Some (res : int Query.result) ->
        if res.Query.version <> version then
          fail "query %s used version %d, expected %d" label res.Query.version
            version;
        List.iteri
          (fun idx expected ->
            match List.nth_opt res.Query.values idx with
            | Some (_, key, got) ->
                if got <> Some expected then
                  fail "query %s read %s = %s, expected %d" label key
                    (match got with None -> "none" | Some v -> string_of_int v)
                    expected
            | None -> fail "query %s missing read %d" label idx)
          values
  in
  (* (1) R reads the version-0 value of w despite T's in-flight update. *)
  check_query "R" r_result ~version:0 ~values:[ w0 ];
  (* (2) subtransaction start versions: T at i and j in 1, at k in 2. *)
  (match t_commit with
  | Some c ->
      let t = c.Update.txn_id in
      if not (started t 0 1) then fail "T_i did not start in version 1";
      if not (started t 1 1) then fail "T_j did not start in version 1";
      if not (started t 2 2) then fail "T_k did not start in version 2";
      (* (4) moveToFuture at data access on j, at commit time on i. *)
      if not (moved t 1 ~at_commit:false) then
        fail "T_j had no data-access moveToFuture";
      if not (moved t 0 ~at_commit:true) then
        fail "T_i had no commit-time moveToFuture";
      if c.Update.final_version <> 2 then
        fail "T committed in version %d, expected 2" c.Update.final_version
  | None -> ());
  (* (3) U and S run entirely in version 2 semantics. *)
  (match u_commit with
  | Some c ->
      if c.Update.final_version <> 2 then fail "U committed in version %d" c.Update.final_version
  | None -> ());
  (match s_commit with
  | Some c ->
      let s = c.Update.txn_id in
      if c.Update.final_version <> 2 then fail "S committed in version %d" c.Update.final_version;
      if not (started s 1 1) then fail "S_j did not start in version 1";
      if not (moved s 1 ~at_commit:false) then
        fail "S had no (trivial) moveToFuture"
  | None -> ());
  (* (6) exactly one commit-time version mismatch (T's). *)
  let stats = Ava3.Cluster.stats db in
  if stats.Ava3.Cluster.commit_version_mismatches <> 1 then
    fail "expected 1 commit version mismatch, saw %d"
      stats.Ava3.Cluster.commit_version_mismatches;
  if stats.Ava3.Cluster.aborts <> 0 then
    fail "expected no aborts, saw %d" stats.Ava3.Cluster.aborts;
  if stats.Ava3.Cluster.lock_waits < 1 then
    fail "expected T_j to wait for U's lock on x";
  (* (7, 8) Q reads snapshot 0; P, moments later, snapshot 1. *)
  check_query "Q" q_result ~version:0 ~values:[ x0; y0 ];
  check_query "P" p_result ~version:1 ~values:[ y0 ];
  (match (!q_result, !p_result) with
  | Some q, Some p ->
      if not (p.Query.finished_at < q.Query.finished_at) then
        fail "P should complete while Q is still running"
  | _ -> ());
  (* (9) the advancement completed and left a clean two-version state. *)
  List.iter (fun v -> fail "invariant: %s" v) (Ava3.Cluster.check_invariants db);
  List.iter
    (fun v -> fail "quiescent: %s" v)
    (Ava3.Cluster.check_quiescent_invariants db);
  for site = 0 to 2 do
    let nd = Ava3.Cluster.node db site in
    if Ava3.Node_state.u nd <> 3 || Ava3.Node_state.q nd <> 2 then
      fail "site %d ended at u=%d q=%d (expected 3/2 after two advancements)"
        site (Ava3.Node_state.u nd) (Ava3.Node_state.q nd)
  done;
  (* (10) after the second advancement every update is visible, with x
     showing T's value (serialized after U). *)
  check_query "final" final_query ~version:2 ~values:[ w_t; x_t; y_s; z_t ];
  (* ---- Event log ---- *)
  (* Transactions and queries go by the paper's names. *)
  let names =
    List.filter_map Fun.id
      [
        Option.map (fun (c : int Update.commit_info) -> (`Txn c.Update.txn_id, "T")) t_commit;
        Option.map (fun (c : int Update.commit_info) -> (`Txn c.Update.txn_id, "U")) u_commit;
        Option.map (fun (c : int Update.commit_info) -> (`Txn c.Update.txn_id, "S")) s_commit;
        Option.map (fun (r : int Query.result) -> (`Query r.Query.txn_id, "R")) !r_result;
        Option.map (fun (r : int Query.result) -> (`Query r.Query.txn_id, "Q")) !q_result;
        Option.map (fun (r : int Query.result) -> (`Query r.Query.txn_id, "P")) !p_result;
        Option.map (fun (r : int Query.result) -> (`Query r.Query.txn_id, "final check")) !final_query;
      ]
  in
  let name subject = List.assoc_opt subject names in
  let events =
    List.filter_map
      (fun { Sim.Trace.time; event; _ } ->
        if List.mem (Sim.Event.tag event) [ "advance"; "txn"; "query"; "crash" ]
        then
          Some
            {
              time;
              site = Sim.Event.site event;
              text = Format.asprintf "%a" (Sim.Event.pp ~name) event;
            }
        else None)
      trace
  in
  { events; violations = List.rev !violations }

let render result =
  let header = [ "TIME"; "SITE i (0)"; "SITE j (1)"; "SITE k (2)" ] in
  let wrap text =
    (* Keep cells readable: truncate very long event texts. *)
    if String.length text > 58 then String.sub text 0 55 ^ "..." else text
  in
  let rows =
    List.map
      (fun e ->
        let cell site = if e.site = Some site then wrap e.text else "" in
        let unplaced = if e.site = None then wrap e.text else "" in
        [
          Printf.sprintf "%6.2f" e.time;
          (if cell 0 = "" && e.site = None then unplaced else cell 0);
          cell 1;
          cell 2;
        ])
      result.events
  in
  Report.render ~header ~rows

let report () =
  print_endline "\n== Table 1: example execution (paper §5), replayed ==";
  let r = run () in
  print_string (render r);
  Report.verdict "table 1" r.violations;
  (* The same execution under the in-place recovery scheme. *)
  Report.verdict "table 1 (undo-redo scheme)"
    (run ~scheme:Wal.Scheme.Undo_redo ()).violations
