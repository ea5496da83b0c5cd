module Update = Ava3.Update_exec

type timings = {
  advancement_started : float;
  all_nodes_on_new_u : float;
  long_update_committed : float;
  phase1_complete : float;
  all_nodes_on_new_q : float;
  long_query_completed : float;
  phase2_complete : float;
  gc_complete : float;
  short_update_max_latency : float;
  short_query_max_latency : float;
}

type result = { timings : timings; violations : string list }

let run ?(eager_handoff = false) ?(long_query_duration = 100.0) () =
  let read_service = 0.5 in
  let config =
    {
      Ava3.Config.default with
      eager_counter_handoff = eager_handoff;
      read_service_time = read_service;
      write_service_time = 0.0;
    }
  in
  let engine = Sim.Engine.create ~seed:7L () in
  let db : int Ava3.Cluster.t =
    Ava3.Cluster.create ~engine ~config ~latency:(Net.Latency.Constant 1.0)
      ~nodes:3 ()
  in
  for n = 0 to 2 do
    Ava3.Cluster.load db ~node:n
      (List.init 10 (fun i -> (Printf.sprintf "n%d-k%d" n i, 0)))
  done;
  let long_update_done = ref infinity in
  let long_query_done = ref infinity in
  let short_update_max = ref 0.0 and short_query_max = ref 0.0 in
  (* The long version-(v+1) update transaction (50 vt of pauses), active
     when advancement starts.  Halfway through it touches an item a
     version-(v+2) transaction has committed, forcing its moveToFuture —
     with the eager hand-off this releases its hold on Phase 1. *)
  Sim.Engine.schedule engine ~delay:5.0 (fun () ->
      (match
         Ava3.Cluster.run_update db ~root:0
           ~ops:
             [
               Update.Write { node = 0; key = "n0-k0"; value = 1 };
               Update.Pause 25.0;
               Update.Write { node = 0; key = "n0-k1"; value = 1 };
               Update.Pause 25.0;
             ]
       with
      | Update.Committed _ -> ()
      | Update.Aborted _ | Update.Root_down _ ->
          failwith "figure1: long update aborted");
      long_update_done := Sim.Engine.now engine);
  (* The long version-v query, active when advancement starts. *)
  Sim.Engine.schedule engine ~delay:6.0 (fun () ->
      let reads =
        List.init
          (int_of_float (long_query_duration /. read_service))
          (fun i -> (1, Printf.sprintf "n1-k%d" (i mod 10)))
      in
      ignore (Ava3.Cluster.run_query db ~root:1 ~reads);
      long_query_done := Sim.Engine.now engine);
  (* Advancement, coordinated by node 2. *)
  Sim.Engine.schedule engine ~delay:10.0 (fun () ->
      match Ava3.Cluster.advance db ~coordinator:2 with
      | `Started _ -> ()
      | `Busy -> failwith "figure1: advancement refused");
  (* A version-(v+2) transaction that commits the item the long update will
     touch later. *)
  Sim.Engine.schedule engine ~delay:12.0 (fun () ->
      ignore
        (Ava3.Cluster.run_update db ~root:0
           ~ops:[ Update.Write { node = 0; key = "n0-k1"; value = 2 } ]));
  (* Short transactions and queries throughout, to verify the advancement
     never delays user work (Theorem 6.3). *)
  for s = 0 to 20 do
    let at = 8.0 +. (6.0 *. float_of_int s) in
    Sim.Engine.schedule engine ~delay:at (fun () ->
        let t0 = Sim.Engine.now engine in
        match
          Ava3.Cluster.run_update db ~root:(s mod 3)
            ~ops:
              [
                Update.Write
                  {
                    node = (s + 1) mod 3;
                    key = Printf.sprintf "n%d-k%d" ((s + 1) mod 3) (2 + (s mod 8));
                    value = s;
                  };
              ]
        with
        | Update.Committed _ ->
            short_update_max := max !short_update_max (Sim.Engine.now engine -. t0)
        | Update.Aborted _ | Update.Root_down _ -> ());
    Sim.Engine.schedule engine ~delay:(at +. 3.0) (fun () ->
        let t0 = Sim.Engine.now engine in
        ignore
          (Ava3.Cluster.run_query db ~root:(s mod 3)
             ~reads:[ (s mod 3, Printf.sprintf "n%d-k%d" (s mod 3) (s mod 10)) ]);
        short_query_max := max !short_query_max (Sim.Engine.now engine -. t0))
  done;
  Sim.Engine.run engine;
  (* Extract phase timings from the protocol trace. *)
  let trace = Sim.Trace.entries (Sim.Engine.trace engine) in
  let last_time pred =
    List.fold_left
      (fun acc e -> if pred e.Sim.Trace.event then e.Sim.Trace.time else acc)
      nan trace
  in
  let first_time pred =
    match List.find_opt (fun e -> pred e.Sim.Trace.event) trace with
    | Some e -> e.Sim.Trace.time
    | None -> nan
  in
  let timings =
    {
      advancement_started =
        first_time (function
          | Sim.Event.Adv_start { newu = 2; _ } -> true
          | _ -> false);
      all_nodes_on_new_u =
        last_time (function Sim.Event.Set_u { u = 2; _ } -> true | _ -> false);
      long_update_committed = !long_update_done;
      phase1_complete =
        first_time (function Sim.Event.Phase1_done _ -> true | _ -> false);
      all_nodes_on_new_q =
        last_time (function Sim.Event.Set_q { q = 1; _ } -> true | _ -> false);
      long_query_completed = !long_query_done;
      phase2_complete =
        first_time (function Sim.Event.Phase2_done _ -> true | _ -> false);
      gc_complete =
        last_time (function
          | Sim.Event.Collected { g = 0; _ } -> true
          | _ -> false);
      short_update_max_latency = !short_update_max;
      short_query_max_latency = !short_query_max;
    }
  in
  let violations = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let slack = 5.0 (* message latencies and ack collection *) in
  if Float.is_nan timings.phase1_complete then fail "phase 1 never completed";
  if Float.is_nan timings.phase2_complete then fail "phase 2 never completed";
  if Float.is_nan timings.gc_complete then fail "garbage collection never ran";
  if not eager_handoff then begin
    (* Figure 1's bound: Phase 1 ends with the longest old update txn. *)
    if timings.phase1_complete < timings.long_update_committed then
      fail "phase 1 completed before the long update transaction";
    if timings.phase1_complete > timings.long_update_committed +. slack then
      fail "phase 1 (%.1f) not bounded by the long update (%.1f)"
        timings.phase1_complete timings.long_update_committed
  end
  else if
    (* §8: with the eager hand-off, Phase 1 no longer waits for the long
       transaction. *)
    timings.phase1_complete >= timings.long_update_committed
  then fail "eager hand-off did not shorten phase 1";
  if timings.phase2_complete < timings.long_query_completed then
    fail "phase 2 completed before the long query";
  if timings.phase2_complete > timings.long_query_completed +. slack then
    fail "phase 2 (%.1f) not bounded by the long query (%.1f)"
      timings.phase2_complete timings.long_query_completed;
  (* Non-interference: short work never waits for the advancement.  Short
     updates can still wait on ordinary locks; generous bound. *)
  if timings.short_query_max_latency > 2.0 then
    fail "a short query took %.2f — queries must never block"
      timings.short_query_max_latency;
  if timings.short_update_max_latency > 10.0 then
    fail "a short update took %.2f — advancement must not delay updates"
      timings.short_update_max_latency;
  List.iter (fun v -> fail "invariant: %s" v) (Ava3.Cluster.check_invariants db);
  { timings; violations = List.rev !violations }

let render result =
  let t = result.timings in
  let t0 = t.advancement_started in
  let scale = 60.0 /. (t.gc_complete -. t0) in
  let bar from_ to_ =
    let offset = int_of_float ((from_ -. t0) *. scale) in
    let len = max 1 (int_of_float ((to_ -. from_) *. scale)) in
    String.make (max 0 offset) ' ' ^ String.make len '#'
  in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "Version advancement time diagram (t0 = %.1f, 1 column = %.2f time \
        units)\n"
       t0 (1.0 /. scale));
  Buffer.add_string buf
    (Printf.sprintf "  Phase 1 (advance-u, wait old updates)  |%s| %.1f .. %.1f\n"
       (bar t0 t.phase1_complete) t0 t.phase1_complete);
  Buffer.add_string buf
    (Printf.sprintf "  Phase 2 (advance-q, wait old queries)  |%s| %.1f .. %.1f\n"
       (bar t.phase1_complete t.phase2_complete)
       t.phase1_complete t.phase2_complete);
  Buffer.add_string buf
    (Printf.sprintf "  Phase 3 (garbage collection)           |%s| %.1f .. %.1f\n"
       (bar t.phase2_complete t.gc_complete)
       t.phase2_complete t.gc_complete);
  Buffer.add_string buf
    (Printf.sprintf "  longest v+1 update transaction ends  %.1f\n"
       t.long_update_committed);
  Buffer.add_string buf
    (Printf.sprintf "  longest v query ends                 %.1f\n"
       t.long_query_completed);
  Buffer.add_string buf
    (Printf.sprintf "  all nodes on new update version      %.1f\n"
       t.all_nodes_on_new_u);
  Buffer.add_string buf
    (Printf.sprintf "  all nodes on new query version       %.1f\n"
       t.all_nodes_on_new_q);
  Buffer.add_string buf
    (Printf.sprintf
       "  short work during advancement: update max %.2f, query max %.2f\n"
       t.short_update_max_latency t.short_query_max_latency);
  Buffer.contents buf

let report () =
  print_endline
    "\n== Figure 1: version-advancement time diagram (paper §8) ==";
  let f = run () in
  print_string (render f);
  Report.verdict "figure 1" f.violations;
  print_endline "\n-- with the §8 eager counter hand-off --";
  let fe = run ~eager_handoff:true () in
  print_string (render fe);
  Report.verdict "figure 1 (eager hand-off)" fe.violations
