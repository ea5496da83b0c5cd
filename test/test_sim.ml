(* Unit and property tests for the discrete-event simulation kernel. *)

let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* {1 Rng} *)

let test_rng_deterministic () =
  let a = Sim.Rng.create 42L and b = Sim.Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.bits64 a) (Sim.Rng.bits64 b)
  done

let test_rng_bounds () =
  let r = Sim.Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Sim.Rng.int r 10 in
    check_bool "in range" true (v >= 0 && v < 10);
    let f = Sim.Rng.float r 3.5 in
    check_bool "float range" true (f >= 0.0 && f < 3.5);
    let x = Sim.Rng.int_in r (-5) 5 in
    check_bool "int_in range" true (x >= -5 && x <= 5)
  done

let test_rng_split_independent () =
  let r = Sim.Rng.create 1L in
  let s = Sim.Rng.split r in
  let v1 = Sim.Rng.bits64 s in
  (* Drawing from the parent must not affect the child's future. *)
  let r' = Sim.Rng.create 1L in
  let s' = Sim.Rng.split r' in
  ignore (Sim.Rng.bits64 r' : int64);
  Alcotest.(check int64) "child stream stable" v1 (Sim.Rng.bits64 s')

let test_rng_exponential_mean () =
  let r = Sim.Rng.create 9L in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.exponential r ~mean:5.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean close to 5" true (abs_float (mean -. 5.0) < 0.25)

(* {1 Heap} *)

let test_heap_orders () =
  let h = Sim.Heap.create ~dummy:0 () in
  let r = Sim.Rng.create 3L in
  let n = 500 in
  for i = 1 to n do
    Sim.Heap.push h ~time:(Sim.Rng.float r 100.0) ~seq:i i
  done;
  let last = ref neg_infinity in
  let count = ref 0 in
  let rec drain () =
    match Sim.Heap.pop h with
    | None -> ()
    | Some (t, _, _) ->
        check_bool "non-decreasing" true (t >= !last);
        last := t;
        incr count;
        drain ()
  in
  drain ();
  check_int "drained all" n !count

let test_heap_fifo_ties () =
  let h = Sim.Heap.create ~dummy:0 () in
  for i = 1 to 10 do
    Sim.Heap.push h ~time:1.0 ~seq:i i
  done;
  for i = 1 to 10 do
    match Sim.Heap.pop h with
    | Some (_, _, v) -> check_int "fifo at equal time" i v
    | None -> Alcotest.fail "heap empty early"
  done

(* Popped slots must not keep referencing their payloads: a long simulation
   would otherwise retain every dead event closure until its array slot
   happened to be overwritten by a later push. *)
let test_heap_pop_clears_slot () =
  let h = Sim.Heap.create ~dummy:(ref 0) () in
  let w = Weak.create 1 in
  (* Push and pop inside helpers so the payload is never rooted by this
     frame's locals — after [drain] returns, only the heap's backing array
     could still reference it. *)
  let fill () =
    let payload = ref 42 in
    Weak.set w 0 (Some payload);
    for i = 1 to 8 do
      Sim.Heap.push h ~time:(float_of_int i) ~seq:i
        (if i = 1 then payload else ref i)
    done
  in
  let drain () =
    (match Sim.Heap.pop h with
    | Some (_, _, p) -> check_int "popped payload" 42 !p
    | None -> Alcotest.fail "heap empty early");
    (* The slot vacated by the pop (old last position) is scrubbed. *)
    check_bool "vacated slot scrubbed" true (Sim.Heap.slot_is_vacant h 7);
    for _ = 1 to 7 do
      ignore (Sim.Heap.pop h)
    done
  in
  fill ();
  drain ();
  (* Fully drained: every backing slot is vacant, including the root. *)
  for i = 0 to 15 do
    check_bool (Printf.sprintf "slot %d vacant after drain" i) true
      (Sim.Heap.slot_is_vacant h i)
  done;
  (* And the payload really is collectable: only [h] could still hold it. *)
  Gc.full_major ();
  check_bool "popped payload collected" true (Weak.get w 0 = None)

(* {1 Engine} *)

let test_sleep_ordering () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  Sim.Engine.spawn e (fun () ->
      Sim.Engine.sleep 10.0;
      order := "b" :: !order);
  Sim.Engine.spawn e (fun () ->
      Sim.Engine.sleep 5.0;
      order := "a" :: !order);
  Sim.Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b" ] (List.rev !order);
  check_float "clock at last event" 10.0 (Sim.Engine.now e)

let test_run_until () =
  let e = Sim.Engine.create () in
  let hits = ref 0 in
  Sim.Engine.schedule e ~delay:1.0 (fun () -> incr hits);
  Sim.Engine.schedule e ~delay:2.0 (fun () -> incr hits);
  Sim.Engine.schedule e ~delay:50.0 (fun () -> incr hits);
  Sim.Engine.run ~until:10.0 e;
  check_int "only events before limit ran" 2 !hits;
  check_float "clock clamped" 10.0 (Sim.Engine.now e);
  Sim.Engine.run e;
  check_int "remaining event ran" 3 !hits

let test_spawn_nested () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.spawn e (fun () ->
      log := "outer-start" :: !log;
      let eng = Sim.Engine.current () in
      Sim.Engine.spawn eng (fun () ->
          Sim.Engine.sleep 1.0;
          log := "inner" :: !log);
      Sim.Engine.sleep 2.0;
      log := "outer-end" :: !log);
  Sim.Engine.run e;
  Alcotest.(check (list string))
    "interleaving" [ "outer-start"; "inner"; "outer-end" ] (List.rev !log)

let test_not_in_process () =
  Alcotest.check_raises "sleep outside" Sim.Engine.Not_in_process (fun () ->
      Sim.Engine.sleep 1.0)

let test_yield_fairness () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  Sim.Engine.spawn e (fun () ->
      log := 1 :: !log;
      Sim.Engine.yield ();
      log := 3 :: !log);
  Sim.Engine.spawn e (fun () -> log := 2 :: !log);
  Sim.Engine.run e;
  Alcotest.(check (list int)) "yield lets peer run" [ 1; 2; 3 ] (List.rev !log)


let test_engine_stop () =
  let e = Sim.Engine.create () in
  let hits = ref 0 in
  for i = 1 to 10 do
    Sim.Engine.schedule e ~delay:(float_of_int i) (fun () ->
        incr hits;
        if i = 3 then Sim.Engine.stop e)
  done;
  Sim.Engine.run e;
  check_int "stopped after third event" 3 !hits;
  check_int "rest still queued" 7 (Sim.Engine.pending_events e);
  Sim.Engine.run e;
  check_int "resumable" 10 !hits

let test_negative_delay_clamped () =
  let e = Sim.Engine.create () in
  let at = ref nan in
  Sim.Engine.schedule e ~delay:(-5.0) (fun () -> at := Sim.Engine.now e);
  Sim.Engine.run e;
  check_float "clamped to now" 0.0 !at

let test_trace_disabled () =
  let e = Sim.Engine.create ~trace:false () in
  Sim.Engine.emit e (Crashed { site = 0 });
  check_int "disabled trace records nothing" 0
    (List.length (Sim.Trace.entries (Sim.Engine.trace e)))

let test_rng_shuffle_pick () =
  let r = Sim.Rng.create 11L in
  let a = Array.init 50 (fun i -> i) in
  let before = Array.copy a in
  Sim.Rng.shuffle r a;
  check_bool "permutation" true
    (List.sort compare (Array.to_list a) = Array.to_list before);
  check_bool "actually shuffled" true (a <> before);
  for _ = 1 to 100 do
    let v = Sim.Rng.pick r a in
    check_bool "picked member" true (Array.exists (fun x -> x = v) a)
  done;
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Sim.Rng.pick r [||]))

let test_rng_copy_diverges_from_parent () =
  let r = Sim.Rng.create 13L in
  let c = Sim.Rng.copy r in
  Alcotest.(check int64) "copies start equal" (Sim.Rng.bits64 r) (Sim.Rng.bits64 c);
  ignore (Sim.Rng.bits64 r);
  (* c is now one draw behind; streams have diverged. *)
  check_bool "independent evolution" true (Sim.Rng.bits64 r <> Sim.Rng.bits64 c)

let test_suspended_count_tracks () =
  let e = Sim.Engine.create () in
  let c = Sim.Condition.create () in
  for _ = 1 to 3 do
    Sim.Engine.spawn e (fun () -> Sim.Condition.await c)
  done;
  Sim.Engine.schedule e ~delay:1.0 (fun () ->
      check_int "three parked" 3 (Sim.Engine.suspended_count e);
      Sim.Condition.broadcast c);
  Sim.Engine.run e;
  check_int "all resumed" 0 (Sim.Engine.suspended_count e)

(* {1 Condition} *)

let test_condition_broadcast_fifo () =
  let e = Sim.Engine.create () in
  let c = Sim.Condition.create () in
  let woke = ref [] in
  for i = 1 to 3 do
    Sim.Engine.spawn e (fun () ->
        Sim.Condition.await c;
        woke := (i, Sim.Engine.now e) :: !woke;
        (* Parking again waits for the next broadcast, not this one. *)
        if i = 2 then begin
          Sim.Condition.await c;
          woke := (20, Sim.Engine.now e) :: !woke
        end)
  done;
  Sim.Engine.schedule e ~delay:1.0 (fun () -> Sim.Condition.broadcast c);
  Sim.Engine.schedule e ~delay:2.0 (fun () -> Sim.Condition.broadcast c);
  Sim.Engine.run e;
  Alcotest.(check (list (pair int (float 0.0))))
    "oldest first, re-parked waiter on the next broadcast"
    [ (1, 1.0); (2, 1.0); (3, 1.0); (20, 2.0) ]
    (List.rev !woke)

let test_condition_await_until () =
  let e = Sim.Engine.create () in
  let c = Sim.Condition.create () in
  let flag = ref false in
  let done_ = ref false in
  Sim.Engine.spawn e (fun () ->
      Sim.Condition.await_until c ~pred:(fun () -> !flag);
      done_ := true);
  (* Spurious broadcast: predicate still false, waiter must re-park. *)
  Sim.Engine.schedule e ~delay:1.0 (fun () -> Sim.Condition.broadcast c);
  Sim.Engine.schedule e ~delay:2.0 (fun () ->
      flag := true;
      Sim.Condition.broadcast c);
  Sim.Engine.run e;
  check_bool "woke after predicate" true !done_

(* {1 Trace} *)

let test_trace_records () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~delay:3.0 (fun () ->
      Sim.Engine.emit e (Commit { txn = 7; root = 1; version = 2 }));
  Sim.Engine.run e;
  match Sim.Trace.entries (Sim.Engine.trace e) with
  | [ entry ] ->
      check_float "stamped with virtual time" 3.0 entry.Sim.Trace.time;
      Alcotest.(check string)
        "rendered" "[    3.00] txn          T7: committed in version 2 (root node1)"
        (Format.asprintf "%a" Sim.Trace.pp_entry entry)
  | _ -> Alcotest.fail "expected exactly one entry"

let test_trace_capacity () =
  let tr = Sim.Trace.create ~capacity:3 () in
  for i = 1 to 10 do
    Sim.Trace.emit tr ~time:(float_of_int i) (Set_u { site = 0; u = i })
  done;
  Alcotest.(check (list int))
    "the newest three, oldest first" [ 8; 9; 10 ]
    (List.map
       (fun e ->
         match e.Sim.Trace.event with Set_u { u; _ } -> u | _ -> -1)
       (Sim.Trace.entries tr))

(* {1 Rng.fork_named} *)

let test_fork_named_stable () =
  let a = Sim.Rng.create 42L in
  let f1 = Sim.Rng.fork_named a "alpha" in
  (* Advance the parent arbitrarily: the fork must not depend on it. *)
  for _ = 1 to 17 do
    ignore (Sim.Rng.bits64 a : int64)
  done;
  let f2 = Sim.Rng.fork_named a "alpha" in
  Alcotest.(check int64)
    "same label, same stream regardless of parent position"
    (Sim.Rng.bits64 f1) (Sim.Rng.bits64 f2);
  let g = Sim.Rng.fork_named a "beta" in
  check_bool "distinct labels diverge" false
    (Int64.equal (Sim.Rng.bits64 f1) (Sim.Rng.bits64 g))

let test_fork_named_leaves_parent () =
  let a = Sim.Rng.create 7L and b = Sim.Rng.create 7L in
  ignore (Sim.Rng.fork_named a "x" : Sim.Rng.t);
  Alcotest.(check int64)
    "forking does not advance the parent" (Sim.Rng.bits64 b)
    (Sim.Rng.bits64 a)

(* {1 Engine chooser} *)

let test_chooser_tie_orders () =
  (* Two named processes racing at the same instant: the chooser's answer
     decides who runs first, and unchosen events keep their order. *)
  let run_with pick =
    let e = Sim.Engine.create () in
    let log = Buffer.create 16 in
    Sim.Engine.set_chooser e
      (Some
         (function
         | Sim.Engine.Tie { labels } when Array.length labels = 2 -> pick
         | _ -> 0));
    Sim.Engine.schedule e ~name:"a" ~delay:1.0 (fun () ->
        Buffer.add_string log "a");
    Sim.Engine.schedule e ~name:"b" ~delay:1.0 (fun () ->
        Buffer.add_string log "b");
    Sim.Engine.run e;
    Buffer.contents log
  in
  Alcotest.(check string) "default order" "ab" (run_with 0);
  Alcotest.(check string) "flipped order" "ba" (run_with 1);
  Alcotest.(check string) "out of range falls back" "ab" (run_with 99)

let test_chooser_program_order () =
  (* Two events of the SAME named process at one instant are never
     offered as a tie: program order is not a scheduling choice. *)
  let e = Sim.Engine.create () in
  let ties = ref 0 in
  Sim.Engine.set_chooser e
    (Some
       (fun _ ->
         incr ties;
         0));
  let log = Buffer.create 16 in
  Sim.Engine.schedule e ~name:"p" ~delay:1.0 (fun () ->
      Buffer.add_string log "1");
  Sim.Engine.schedule e ~name:"p" ~delay:1.0 (fun () ->
      Buffer.add_string log "2");
  Sim.Engine.run e;
  Alcotest.(check string) "program order kept" "12" (Buffer.contents log);
  check_int "no tie offered" 0 !ties

let test_branch_without_chooser () =
  let e = Sim.Engine.create () in
  check_int "branch defaults to 0" 0 (Sim.Engine.branch e ~label:"b" 5);
  Sim.Engine.set_chooser e
    (Some (function Sim.Engine.Branch { arity; _ } -> arity - 1 | _ -> 0));
  check_int "chooser answers branch" 4 (Sim.Engine.branch e ~label:"b" 5)

let test_pending_summary () =
  let e = Sim.Engine.create () in
  Sim.Engine.schedule e ~name:"z" ~delay:2.0 (fun () -> ());
  Sim.Engine.schedule e ~delay:1.0 (fun () -> ());
  Alcotest.(check (list (pair (float 1e-9) (option string))))
    "sorted (time, label) summary"
    [ (1.0, None); (2.0, Some "z") ]
    (Sim.Engine.pending_summary e)

(* {1 Properties} *)

let prop_engine_deterministic =
  QCheck.Test.make ~name:"engine runs are deterministic under a seed"
    ~count:50
    QCheck.(pair (int_bound 1000) small_int)
    (fun (seed, nproc) ->
      let run_once () =
        let e = Sim.Engine.create ~seed:(Int64.of_int seed) () in
        let r = Sim.Rng.split (Sim.Engine.rng e) in
        let log = Buffer.create 64 in
        for i = 0 to min nproc 20 do
          let delay = Sim.Rng.float r 100.0 in
          Sim.Engine.schedule e ~delay (fun () ->
              Buffer.add_string log (Printf.sprintf "%d@%f;" i (Sim.Engine.now e)))
        done;
        Sim.Engine.run e;
        Buffer.contents log
      in
      String.equal (run_once ()) (run_once ()))

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in key order" ~count:200
    QCheck.(list (pair (float_bound_inclusive 1000.0) small_int))
    (fun items ->
      let h = Sim.Heap.create ~dummy:0 () in
      List.iteri (fun i (t, v) -> Sim.Heap.push h ~time:t ~seq:i v) items;
      let rec drain last acc =
        match Sim.Heap.pop h with
        | None -> acc
        | Some (t, _, _) -> t >= last && drain t acc
      in
      drain neg_infinity true)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle and pick" `Quick test_rng_shuffle_pick;
          Alcotest.test_case "copy diverges" `Quick test_rng_copy_diverges_from_parent;
          Alcotest.test_case "fork_named stable" `Quick test_fork_named_stable;
          Alcotest.test_case "fork_named leaves parent" `Quick
            test_fork_named_leaves_parent;
        ] );
      ( "heap",
        [
          Alcotest.test_case "orders" `Quick test_heap_orders;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "pop clears slot" `Quick test_heap_pop_clears_slot;
        ] );
      ( "engine",
        [
          Alcotest.test_case "sleep ordering" `Quick test_sleep_ordering;
          Alcotest.test_case "run until" `Quick test_run_until;
          Alcotest.test_case "spawn nested" `Quick test_spawn_nested;
          Alcotest.test_case "not in process" `Quick test_not_in_process;
          Alcotest.test_case "yield fairness" `Quick test_yield_fairness;
          Alcotest.test_case "stop and resume" `Quick test_engine_stop;
          Alcotest.test_case "negative delay clamped" `Quick
            test_negative_delay_clamped;
          Alcotest.test_case "suspended count" `Quick test_suspended_count_tracks;
          Alcotest.test_case "chooser tie orders" `Quick test_chooser_tie_orders;
          Alcotest.test_case "chooser keeps program order" `Quick
            test_chooser_program_order;
          Alcotest.test_case "branch without chooser" `Quick
            test_branch_without_chooser;
          Alcotest.test_case "pending summary" `Quick test_pending_summary;
        ] );
      ( "condition",
        [
          Alcotest.test_case "broadcast wakes oldest first" `Quick
            test_condition_broadcast_fifo;
          Alcotest.test_case "await_until" `Quick test_condition_await_until;
        ] );
      ( "trace",
        [
          Alcotest.test_case "records" `Quick test_trace_records;
          Alcotest.test_case "disabled records nothing" `Quick
            test_trace_disabled;
          Alcotest.test_case "capacity ring" `Quick test_trace_capacity;
        ] );
      ("properties", qc [ prop_engine_deterministic; prop_heap_sorted ]);
    ]
