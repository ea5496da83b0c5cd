(* Tests for the simulated network: latency models, per-link FIFO delivery,
   RPC exception propagation, and node-down behaviour. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let test_latency_models () =
  let rng = Sim.Rng.create 3L in
  for _ = 1 to 500 do
    check_float "constant" 2.5 (Net.Latency.sample (Net.Latency.Constant 2.5) rng);
    let u = Net.Latency.sample (Net.Latency.Uniform { lo = 1.0; hi = 3.0 }) rng in
    check_bool "uniform in range" true (u >= 1.0 && u <= 3.0);
    let e =
      Net.Latency.sample (Net.Latency.Exponential { mean = 5.0; floor = 1.0 }) rng
    in
    check_bool "exponential above floor" true (e >= 1.0)
  done;
  check_float "uniform mean" 2.0 (Net.Latency.mean (Net.Latency.Uniform { lo = 1.0; hi = 3.0 }))

let test_send_delivers () =
  let e = Sim.Engine.create () in
  let net : string Net.Network.t =
    Net.Network.create ~engine:e ~nodes:2 ~latency:(Net.Latency.Constant 3.0) ()
  in
  let received = ref [] in
  Net.Network.set_handler net ~node:1 (fun ~src msg ->
      received := (src, msg, Sim.Engine.now e) :: !received);
  Net.Network.set_handler net ~node:0 (fun ~src:_ _ -> ());
  Net.Network.send net ~src:0 ~dst:1 "hello";
  Sim.Engine.run e;
  match !received with
  | [ (0, "hello", t) ] -> check_float "latency applied" 3.0 t
  | _ -> Alcotest.fail "message not delivered exactly once"

let test_fifo_per_link () =
  (* Even with highly variable latency, two sends on the same link arrive
     in order. *)
  let e = Sim.Engine.create ~seed:9L () in
  let net : int Net.Network.t =
    Net.Network.create ~engine:e ~nodes:2
      ~latency:(Net.Latency.Uniform { lo = 0.1; hi = 10.0 })
      ()
  in
  let received = ref [] in
  Net.Network.set_handler net ~node:1 (fun ~src:_ msg ->
      received := msg :: !received);
  Net.Network.set_handler net ~node:0 (fun ~src:_ _ -> ());
  for i = 1 to 50 do
    Net.Network.send net ~src:0 ~dst:1 i
  done;
  Sim.Engine.run e;
  Alcotest.(check (list int)) "in order" (List.init 50 (fun i -> i + 1))
    (List.rev !received)

let test_self_latency_zero () =
  let e = Sim.Engine.create () in
  let net : unit Net.Network.t =
    Net.Network.create ~engine:e ~nodes:1 ~latency:(Net.Latency.Constant 5.0) ()
  in
  let at = ref nan in
  Net.Network.set_handler net ~node:0 (fun ~src:_ () -> at := Sim.Engine.now e);
  Net.Network.send net ~src:0 ~dst:0 ();
  Sim.Engine.run e;
  check_float "self delivery immediate" 0.0 !at

let test_call_roundtrip () =
  let e = Sim.Engine.create () in
  let net : unit Net.Network.t =
    Net.Network.create ~engine:e ~nodes:2 ~latency:(Net.Latency.Constant 2.0) ()
  in
  let result = ref 0 and finished = ref nan in
  Sim.Engine.spawn e (fun () ->
      result := Net.Network.call net ~src:0 ~dst:1 (fun () -> 21 * 2);
      finished := Sim.Engine.now e);
  Sim.Engine.run e;
  check_int "result returned" 42 !result;
  check_float "two latencies" 4.0 !finished

exception Boom

let test_call_propagates_exception () =
  let e = Sim.Engine.create () in
  let net : unit Net.Network.t = Net.Network.create ~engine:e ~nodes:2 () in
  let caught = ref false in
  Sim.Engine.spawn e (fun () ->
      try ignore (Net.Network.call net ~src:0 ~dst:1 (fun () -> raise Boom))
      with Boom -> caught := true);
  Sim.Engine.run e;
  check_bool "exception surfaced at caller" true !caught

let test_down_node_drops () =
  let e = Sim.Engine.create () in
  let net : unit Net.Network.t = Net.Network.create ~engine:e ~nodes:2 () in
  let hits = ref 0 in
  Net.Network.set_handler net ~node:1 (fun ~src:_ () -> incr hits);
  Net.Network.set_down net ~node:1 true;
  Net.Network.send net ~src:0 ~dst:1 ();
  Sim.Engine.run e;
  check_int "dropped" 0 !hits;
  check_int "counted as dropped" 1 (Net.Network.messages_dropped net);
  (* Recovery: traffic flows again. *)
  Net.Network.set_down net ~node:1 false;
  Net.Network.send net ~src:0 ~dst:1 ();
  Sim.Engine.run e;
  check_int "delivered after recovery" 1 !hits

let test_call_to_down_node () =
  (* No oracle: the caller learns about the dead destination only through
     the timeout, after [timeout] simulated seconds. *)
  let e = Sim.Engine.create () in
  let net : unit Net.Network.t = Net.Network.create ~engine:e ~nodes:2 () in
  Net.Network.set_down net ~node:1 true;
  let raised = ref nan in
  Sim.Engine.spawn e (fun () ->
      try ignore (Net.Network.call ~timeout:7.0 net ~src:0 ~dst:1 (fun () -> ()))
      with Net.Network.Rpc_timeout 1 -> raised := Sim.Engine.now e);
  Sim.Engine.run e;
  check_float "Rpc_timeout after the full timeout" 7.0 !raised;
  check_int "lost request counted" 1 (Net.Network.messages_dropped net)

let test_call_node_dies_mid_flight () =
  (* The destination goes down after the request is sent but before it is
     processed: the request is lost, the thunk never runs, and the caller
     gets Rpc_timeout, not a hang. *)
  let e = Sim.Engine.create () in
  let net : unit Net.Network.t =
    Net.Network.create ~engine:e ~nodes:2 ~latency:(Net.Latency.Constant 5.0)
      ~call_timeout:20.0 ()
  in
  let raised = ref false and ran = ref false in
  Sim.Engine.spawn e (fun () ->
      try ignore (Net.Network.call net ~src:0 ~dst:1 (fun () -> ran := true))
      with Net.Network.Rpc_timeout 1 -> raised := true);
  Sim.Engine.schedule e ~delay:1.0 (fun () -> Net.Network.set_down net ~node:1 true);
  Sim.Engine.run e;
  check_bool "mid-flight crash surfaces as timeout" true !raised;
  check_bool "thunk never ran" false !ran

let test_call_src_down_at_send () =
  (* Regression: [call] used to skip the [down.(src)] check that plain
     [send] performs, letting a crashed node originate RPCs for free. *)
  let e = Sim.Engine.create () in
  let net : unit Net.Network.t = Net.Network.create ~engine:e ~nodes:2 () in
  Net.Network.set_down net ~node:0 true;
  let raised = ref false and ran = ref false in
  Sim.Engine.spawn e (fun () ->
      try ignore (Net.Network.call net ~src:0 ~dst:1 (fun () -> ran := true))
      with Net.Network.Node_down 0 -> raised := true);
  Sim.Engine.run e;
  check_bool "Node_down src raised" true !raised;
  check_bool "thunk never ran" false !ran;
  check_int "dropped leg counted" 1 (Net.Network.messages_dropped net)

let test_call_caller_crashes_before_reply () =
  (* Regression: the scheduled reply used to resume the caller even when
     its node crashed between request and reply.  Now the reply is dropped
     — with an infinite timeout the zombie caller never resumes. *)
  let e = Sim.Engine.create () in
  let net : unit Net.Network.t =
    Net.Network.create ~engine:e ~nodes:2 ~latency:(Net.Latency.Constant 5.0) ()
  in
  let resumed = ref false and ran = ref false in
  Sim.Engine.spawn e (fun () ->
      ignore (Net.Network.call net ~src:0 ~dst:1 (fun () -> ran := true));
      resumed := true);
  (* Crash the caller while the request (t in [0,5]) or reply (t in [5,10])
     is in flight; the thunk itself runs at t=5. *)
  Sim.Engine.schedule e ~delay:6.0 (fun () -> Net.Network.set_down net ~node:0 true);
  Sim.Engine.run e;
  check_bool "thunk ran at destination" true !ran;
  check_bool "crashed caller never resumed" false !resumed;
  check_int "dropped reply counted" 1 (Net.Network.messages_dropped net)

let test_call_timeout_resumes_crashed_caller () =
  (* A finite timeout fires even when the caller's node is down, so the
     suspended process can unwind (release locks, abort 2PC) — but the
     successful result itself is lost. *)
  let e = Sim.Engine.create () in
  let net : unit Net.Network.t =
    Net.Network.create ~engine:e ~nodes:2 ~latency:(Net.Latency.Constant 5.0) ()
  in
  let outcome = ref `Pending in
  Sim.Engine.spawn e (fun () ->
      match Net.Network.call ~timeout:30.0 net ~src:0 ~dst:1 (fun () -> 7) with
      | _ -> outcome := `Replied
      | exception Net.Network.Rpc_timeout _ -> outcome := `Timed_out);
  Sim.Engine.schedule e ~delay:6.0 (fun () -> Net.Network.set_down net ~node:0 true);
  Sim.Engine.run e;
  check_bool "zombie caller unwound via timeout" true (!outcome = `Timed_out)

let test_call_slow_link_extra_latency () =
  (* Nemesis latency injection: extra one-way delay stretches the
     round-trip; clearing it restores normal speed. *)
  let e = Sim.Engine.create () in
  let net : unit Net.Network.t =
    Net.Network.create ~engine:e ~nodes:2 ~latency:(Net.Latency.Constant 1.0) ()
  in
  Net.Network.set_link_extra net ~src:0 ~dst:1 10.0;
  let finished = ref nan in
  Sim.Engine.spawn e (fun () ->
      ignore (Net.Network.call net ~src:0 ~dst:1 (fun () -> ()));
      finished := Sim.Engine.now e);
  Sim.Engine.run e;
  check_float "request slowed, reply normal" 12.0 !finished;
  Net.Network.set_link_extra net ~src:0 ~dst:1 0.0;
  Sim.Engine.spawn e (fun () ->
      let t0 = Sim.Engine.now e in
      ignore (Net.Network.call net ~src:0 ~dst:1 (fun () -> ()));
      finished := Sim.Engine.now e -. t0);
  Sim.Engine.run e;
  check_float "healed link back to normal" 2.0 !finished

let test_link_partition () =
  let e = Sim.Engine.create () in
  let net : unit Net.Network.t = Net.Network.create ~engine:e ~nodes:2 () in
  let hits = ref 0 in
  Net.Network.set_handler net ~node:1 (fun ~src:_ () -> incr hits);
  Net.Network.set_link_down net ~src:0 ~dst:1 true;
  Net.Network.send net ~src:0 ~dst:1 ();
  Sim.Engine.run e;
  check_int "dropped on partitioned link" 0 !hits;
  check_bool "reported down" true (Net.Network.link_is_down net ~src:0 ~dst:1);
  (* The reverse direction still works. *)
  Net.Network.set_handler net ~node:0 (fun ~src:_ () -> incr hits);
  Net.Network.send net ~src:1 ~dst:0 ();
  Sim.Engine.run e;
  check_int "reverse link unaffected" 1 !hits;
  (* Heal. *)
  Net.Network.set_link_down net ~src:0 ~dst:1 false;
  Net.Network.send net ~src:0 ~dst:1 ();
  Sim.Engine.run e;
  check_int "healed" 2 !hits

let test_call_on_partitioned_link () =
  let e = Sim.Engine.create () in
  let net : unit Net.Network.t =
    Net.Network.create ~engine:e ~nodes:2 ~call_timeout:15.0 ()
  in
  Net.Network.set_link_down net ~src:1 ~dst:0 true;
  (* The reply path is down: the thunk still executes at the destination,
     but the reply is lost and the caller times out. *)
  let raised = ref false and ran = ref false in
  Sim.Engine.spawn e (fun () ->
      try ignore (Net.Network.call net ~src:0 ~dst:1 (fun () -> ran := true))
      with Net.Network.Rpc_timeout _ -> raised := true);
  Sim.Engine.run e;
  check_bool "call times out on half-open link" true !raised;
  check_bool "request still executed" true !ran

let test_link_stats () =
  let e = Sim.Engine.create () in
  let net : unit Net.Network.t = Net.Network.create ~engine:e ~nodes:3 () in
  for n = 0 to 2 do
    Net.Network.set_handler net ~node:n (fun ~src:_ () -> ())
  done;
  Net.Network.send net ~src:0 ~dst:1 ();
  Net.Network.send net ~src:0 ~dst:1 ();
  Net.Network.send net ~src:1 ~dst:2 ();
  Sim.Engine.run e;
  check_int "link 0->1" 2 (Net.Network.link_count net ~src:0 ~dst:1);
  check_int "link 1->2" 1 (Net.Network.link_count net ~src:1 ~dst:2);
  check_int "link 2->0" 0 (Net.Network.link_count net ~src:2 ~dst:0)

(* {1 Message coalescing (batch_window)} *)

let test_batch_coalesces_legs () =
  (* Three sends inside one window ride a single envelope: one latency
     draw, one transport event, FIFO payload order on arrival. *)
  let e = Sim.Engine.create () in
  let metrics = Sim.Metrics.create ~nodes:2 in
  let net : int Net.Network.t =
    Net.Network.create ~engine:e ~nodes:2 ~latency:(Net.Latency.Constant 1.0)
      ~batch_window:2.0 ~metrics ()
  in
  let received = ref [] in
  Net.Network.set_handler net ~node:1 (fun ~src:_ msg ->
      received := (msg, Sim.Engine.now e) :: !received);
  Net.Network.set_handler net ~node:0 (fun ~src:_ _ -> ());
  Sim.Engine.schedule e ~delay:0.0 (fun () ->
      Net.Network.send net ~src:0 ~dst:1 1);
  Sim.Engine.schedule e ~delay:0.5 (fun () ->
      Net.Network.send net ~src:0 ~dst:1 2);
  Sim.Engine.schedule e ~delay:1.5 (fun () ->
      Net.Network.send net ~src:0 ~dst:1 3);
  Sim.Engine.run e;
  check_int "one envelope on the wire" 1 (Sim.Metrics.total_envelopes metrics);
  check_int "three message legs" 3 (Net.Network.messages_sent net);
  Alcotest.(check (list (pair int (float 1e-9))))
    "FIFO order, all at window + latency"
    [ (1, 3.0); (2, 3.0); (3, 3.0) ]
    (List.rev !received)

let test_batch_timeout_from_send_time () =
  (* The timeout clock starts at the call, not at the batch flush: a
     3-second timeout inside a 5-second window fires at t = 3, while the
     request is still queued. *)
  let e = Sim.Engine.create () in
  let net : unit Net.Network.t =
    Net.Network.create ~engine:e ~nodes:2 ~latency:(Net.Latency.Constant 1.0)
      ~batch_window:5.0 ()
  in
  let raised = ref nan in
  Sim.Engine.spawn e (fun () ->
      try ignore (Net.Network.call ~timeout:3.0 net ~src:0 ~dst:1 (fun () -> ()))
      with Net.Network.Rpc_timeout 1 -> raised := Sim.Engine.now e);
  Sim.Engine.run e;
  check_float "Rpc_timeout at call time + timeout" 3.0 !raised

let test_batch_partition_mid_window_drops_envelope () =
  (* The nemesis cuts the link after the request is queued but before the
     window flushes: the whole envelope is dropped and the caller learns of
     it only through the timeout. *)
  let e = Sim.Engine.create () in
  let net : unit Net.Network.t =
    Net.Network.create ~engine:e ~nodes:2 ~latency:(Net.Latency.Constant 1.0)
      ~batch_window:5.0 ~call_timeout:8.0 ()
  in
  let raised = ref nan and ran = ref false in
  Sim.Engine.spawn e (fun () ->
      try ignore (Net.Network.call net ~src:0 ~dst:1 (fun () -> ran := true))
      with Net.Network.Rpc_timeout 1 -> raised := Sim.Engine.now e);
  Sim.Engine.schedule e ~delay:2.0 (fun () ->
      Net.Network.set_link_down net ~src:0 ~dst:1 true);
  Sim.Engine.run e;
  check_float "timeout from call time" 8.0 !raised;
  check_bool "request never executed" false !ran;
  check_bool "envelope counted as dropped" true
    (Net.Network.messages_dropped net > 0)

let test_batch_window_zero_identical () =
  (* An explicit zero window must behave exactly like the default build:
     same latency draws, same delivery instants, message for message. *)
  let run window =
    let e = Sim.Engine.create ~seed:77L () in
    let metrics = Sim.Metrics.create ~nodes:2 in
    let net : int Net.Network.t =
      Net.Network.create ~engine:e ~nodes:2
        ~latency:(Net.Latency.Uniform { lo = 0.5; hi = 4.0 })
        ?batch_window:window ~metrics ()
    in
    let received = ref [] in
    Net.Network.set_handler net ~node:1 (fun ~src:_ msg ->
        received := (msg, Sim.Engine.now e) :: !received);
    Net.Network.set_handler net ~node:0 (fun ~src:_ _ -> ());
    for i = 1 to 20 do
      Sim.Engine.schedule e ~delay:(float_of_int i *. 0.3) (fun () ->
          Net.Network.send net ~src:0 ~dst:1 i)
    done;
    Sim.Engine.spawn e (fun () ->
        ignore (Net.Network.call net ~src:0 ~dst:1 (fun () -> 0)));
    Sim.Engine.run e;
    (List.rev !received, Sim.Metrics.total_envelopes metrics)
  in
  Alcotest.(check bool)
    "window 0 bit-identical to the unbatched default" true
    (run None = run (Some 0.0))

let () =
  Alcotest.run "net"
    [
      ( "latency",
        [ Alcotest.test_case "models" `Quick test_latency_models ] );
      ( "delivery",
        [
          Alcotest.test_case "send delivers" `Quick test_send_delivers;
          Alcotest.test_case "fifo per link" `Quick test_fifo_per_link;
          Alcotest.test_case "self latency zero" `Quick test_self_latency_zero;
          Alcotest.test_case "link stats" `Quick test_link_stats;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "roundtrip" `Quick test_call_roundtrip;
          Alcotest.test_case "exception propagation" `Quick
            test_call_propagates_exception;
        ] );
      ( "failures",
        [
          Alcotest.test_case "down node drops" `Quick test_down_node_drops;
          Alcotest.test_case "call to down node" `Quick test_call_to_down_node;
          Alcotest.test_case "dies mid-flight" `Quick
            test_call_node_dies_mid_flight;
          Alcotest.test_case "link partition" `Quick test_link_partition;
          Alcotest.test_case "call on partitioned link" `Quick
            test_call_on_partitioned_link;
          Alcotest.test_case "src down at send" `Quick
            test_call_src_down_at_send;
          Alcotest.test_case "caller crashes before reply" `Quick
            test_call_caller_crashes_before_reply;
          Alcotest.test_case "timeout resumes crashed caller" `Quick
            test_call_timeout_resumes_crashed_caller;
          Alcotest.test_case "slow link extra latency" `Quick
            test_call_slow_link_extra_latency;
        ] );
      ( "batching",
        [
          Alcotest.test_case "coalesces legs into one envelope" `Quick
            test_batch_coalesces_legs;
          Alcotest.test_case "timeout runs from send time" `Quick
            test_batch_timeout_from_send_time;
          Alcotest.test_case "partition mid-window drops envelope" `Quick
            test_batch_partition_mid_window_drops_envelope;
          Alcotest.test_case "window zero identical to default" `Quick
            test_batch_window_zero_identical;
        ] );
    ]
