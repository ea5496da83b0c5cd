(* Sim.Pool: the domain fan-out used by every experiment sweep. *)

let test_order_preserved () =
  let xs = List.init 100 Fun.id in
  let ys = Sim.Pool.map ~domains:4 (fun x -> x * x) xs in
  Alcotest.(check (list int)) "squares in input order"
    (List.map (fun x -> x * x) xs)
    ys

exception Boom of int

let test_exception_propagates () =
  let raised =
    try
      ignore
        (Sim.Pool.map ~domains:4
           (fun x -> if x = 7 then raise (Boom x) else x)
           (List.init 20 Fun.id));
      None
    with Boom n -> Some n
  in
  Alcotest.(check (option int)) "Boom 7 escapes the pool" (Some 7) raised

let test_first_exception_by_index () =
  (* Several items raise; the caller sees the lowest-index failure, the
     same one a sequential List.map would have hit first. *)
  let raised =
    try
      ignore
        (Sim.Pool.map ~domains:4
           (fun x -> if x >= 5 then raise (Boom x) else x)
           (List.init 20 Fun.id));
      None
    with Boom n -> Some n
  in
  Alcotest.(check (option int)) "lowest-index exception wins" (Some 5) raised

let test_sequential_fallback () =
  (* With domains:1 the map runs in the calling domain, in order: the
     side-effect log must equal the input sequence exactly. *)
  let log = ref [] in
  let xs = List.init 10 Fun.id in
  let ys =
    Sim.Pool.map ~domains:1
      (fun x ->
        log := x :: !log;
        x + 1)
      xs
  in
  Alcotest.(check (list int)) "results" (List.map succ xs) ys;
  Alcotest.(check (list int)) "visited in input order" xs (List.rev !log)

let test_nested_fallback () =
  (* A map spawned from inside a pool worker must not spawn further
     domains; it falls back to sequential and still returns correct
     results.  The lifetime spawn counter proves it: across the whole
     nested call only the outer map's helper may be spawned. *)
  let before = Sim.Pool.domains_spawned () in
  let nested_flags = Atomic.make 0 in
  let ys =
    Sim.Pool.map ~domains:2
      (fun x ->
        if Sim.Pool.inside_pool () then Atomic.incr nested_flags;
        Sim.Pool.map ~domains:2 (fun y -> (x * 10) + y) [ 1; 2; 3 ])
      [ 0; 1 ]
  in
  Alcotest.(check (list (list int)))
    "nested map correct" [ [ 1; 2; 3 ]; [ 11; 12; 13 ] ] ys;
  Alcotest.(check bool) "workers know they are inside the pool" true
    (Atomic.get nested_flags = 2);
  let spawned = Sim.Pool.domains_spawned () - before in
  Alcotest.(check int)
    "only the outer map's single helper was spawned" 1 spawned

let test_sequential_explicit () =
  (* The named fallback path itself: plain List.map semantics, zero
     domains spawned, usable directly. *)
  let before = Sim.Pool.domains_spawned () in
  let log = ref [] in
  let ys =
    Sim.Pool.sequential
      (fun x ->
        log := x :: !log;
        x * 2)
      [ 3; 1; 4 ]
  in
  Alcotest.(check (list int)) "results" [ 6; 2; 8 ] ys;
  Alcotest.(check (list int)) "in order" [ 3; 1; 4 ] (List.rev !log);
  Alcotest.(check int) "no domains spawned" before
    (Sim.Pool.domains_spawned ());
  (* domains:1 and short lists take the same no-spawn path. *)
  ignore (Sim.Pool.map ~domains:1 succ [ 1; 2; 3 ]);
  ignore (Sim.Pool.map ~domains:4 succ [ 1 ]);
  Alcotest.(check int) "width-1 and singleton maps spawn nothing" before
    (Sim.Pool.domains_spawned ())

let test_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Sim.Pool.map ~domains:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 2 ] (Sim.Pool.map ~domains:4 succ [ 1 ])

let test_sweep_deterministic () =
  (* The tentpole property: an experiment sweep yields identical rows at
     any domain count (each run owns its engine, rng, and store). *)
  let sweep domains =
    Dbsim.Experiment.run ~domains
      (Dbsim.Experiment.staleness ~periods:[ 25.0; 50.0 ] ~eager:[ false ] ())
  in
  let rows1 = sweep 1 and rows4 = sweep 4 in
  Alcotest.(check bool) "1 domain = 4 domains" true (rows1 = rows4)

let () =
  Alcotest.run "pool"
    [
      ( "map",
        [
          Alcotest.test_case "order preserved" `Quick test_order_preserved;
          Alcotest.test_case "exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "first exception by index" `Quick
            test_first_exception_by_index;
          Alcotest.test_case "domains:1 sequential" `Quick
            test_sequential_fallback;
          Alcotest.test_case "nested fallback" `Quick test_nested_fallback;
          Alcotest.test_case "explicit sequential path" `Quick
            test_sequential_explicit;
          Alcotest.test_case "empty and singleton" `Quick
            test_empty_and_singleton;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "sweep identical at any width" `Quick
            test_sweep_deterministic;
        ] );
    ]
