(* Deterministic fault injection.

   A nemesis run has two halves: a [plan] — a pure value listing every
   fault and its timing, derived from a seeded RNG before the simulation
   starts — and [install], which turns the plan into ordinary engine
   processes.  Keeping the plan first-class makes runs reproducible (same
   seed => same faults, at any domain width, since the plan is fixed before
   any event fires), printable, and testable without running anything. *)

type event =
  | Crash of { node : int; at : float; duration : float }
  | Partition of { a : int; b : int; at : float; duration : float }
  | Slow_link of {
      src : int;
      dst : int;
      at : float;
      duration : float;
      extra : float;
    }

type plan = event list

type target = {
  nodes : int;
  crash : int -> unit;
  recover : int -> unit;
  partition : src:int -> dst:int -> bool -> unit;
  slow : src:int -> dst:int -> float -> unit;
}

let event_start = function
  | Crash { at; _ } | Partition { at; _ } | Slow_link { at; _ } -> at

let sort_plan plan =
  (* Stable, so simultaneous events keep their generation order and the
     schedule stays deterministic. *)
  List.stable_sort
    (fun a b -> compare (event_start a) (event_start b))
    plan

let describe plan =
  sort_plan plan
  |> List.map (function
       | Crash { node; at; duration } ->
           Printf.sprintf "t=%.1f crash node%d for %.1f" at node duration
       | Partition { a; b; at; duration } ->
           Printf.sprintf "t=%.1f partition node%d<->node%d for %.1f" at a b
             duration
       | Slow_link { src; dst; at; duration; extra } ->
           Printf.sprintf "t=%.1f slow link node%d->node%d by +%.1f for %.1f"
             at src dst extra duration)

let validate ~nodes plan =
  let check_node n =
    if n < 0 || n >= nodes then invalid_arg "Nemesis: event names no such node"
  in
  List.iter
    (fun ev ->
      (match ev with
      | Crash { node; _ } -> check_node node
      | Partition { a; b; _ } ->
          check_node a;
          check_node b;
          if a = b then invalid_arg "Nemesis: partition of a node with itself"
      | Slow_link { src; dst; extra; _ } ->
          check_node src;
          check_node dst;
          if extra < 0.0 then invalid_arg "Nemesis: negative extra latency");
      match ev with
      | Crash { at; duration; _ }
      | Partition { at; duration; _ }
      | Slow_link { at; duration; _ } ->
          if at < 0.0 || duration <= 0.0 then
            invalid_arg "Nemesis: events need at >= 0 and duration > 0")
    plan

(* Random plan with a liveness guarantee: crash windows are disjoint (at
   most one node down at any instant) and every fault heals before
   [horizon].  Version advancement needs acknowledgments from *all* nodes,
   so overlapping crashes merely stretch the stall; disjoint ones keep each
   round's obstruction bounded by a single repair. *)
let random_plan ~rng ~nodes ~horizon ?(crashes = 2) ?(partitions = 1)
    ?(slow_links = 1) ?(min_duration = 20.0) ?(max_duration = 60.0)
    ?(extra_latency = 5.0) () =
  if nodes < 2 then invalid_arg "Nemesis.random_plan: need at least two nodes";
  if horizon <= 0.0 then invalid_arg "Nemesis.random_plan: need horizon > 0";
  let duration () =
    min_duration +. Sim.Rng.float rng (max_duration -. min_duration)
  in
  let plan = ref [] in
  (* Crashes: slice the horizon into [crashes] equal slots and place one
     crash window strictly inside each, so no two overlap. *)
  let slot = horizon /. float_of_int (max 1 crashes) in
  for i = 0 to crashes - 1 do
    let d = min (duration ()) (slot /. 2.0) in
    let lo = (float_of_int i *. slot) +. (slot /. 8.0) in
    let hi = (float_of_int (i + 1) *. slot) -. d in
    if hi > lo then
      let at = lo +. Sim.Rng.float rng (hi -. lo) in
      let node = Sim.Rng.int rng nodes in
      plan := Crash { node; at; duration = d } :: !plan
  done;
  let place mk count =
    for _ = 1 to count do
      let d = duration () in
      let hi = horizon -. d in
      if hi > 0.0 then begin
        let at = Sim.Rng.float rng hi in
        let a = Sim.Rng.int rng nodes in
        let b = (a + 1 + Sim.Rng.int rng (nodes - 1)) mod nodes in
        plan := mk ~a ~b ~at ~d :: !plan
      end
    done
  in
  place (fun ~a ~b ~at ~d -> Partition { a; b; at; duration = d }) partitions;
  place
    (fun ~a ~b ~at ~d ->
      Slow_link { src = a; dst = b; at; duration = d; extra = extra_latency })
    slow_links;
  sort_plan (List.rev !plan)

(* Enumerable plan: every decision a random plan would draw from an RNG —
   which node a fault hits, when it starts, how long it lasts, which link a
   partition cuts — is instead a labelled discrete choice answered by
   [choose].  Wired to [Sim.Engine.branch], a model checker can enumerate
   the whole fault space of a scenario instead of sampling one plan per
   seed.  Every fault heals before [horizon] (durations are clamped), the
   same liveness guarantee [random_plan] gives. *)
let choice_plan ~choose ~nodes ~horizon ?(crashes = 1) ?(partitions = 0)
    ?(slow_links = 0) ?at_choices ?duration_choices ?(extra_latency = 5.0) () =
  if nodes < 2 then invalid_arg "Nemesis.choice_plan: need at least two nodes";
  if horizon <= 0.0 then invalid_arg "Nemesis.choice_plan: need horizon > 0";
  let at_choices =
    match at_choices with
    | Some a when Array.length a > 0 -> a
    | Some _ -> invalid_arg "Nemesis.choice_plan: empty at_choices"
    | None ->
        Array.map (fun f -> f *. horizon) [| 0.15; 0.35; 0.55; 0.75 |]
  in
  let duration_choices =
    match duration_choices with
    | Some d when Array.length d > 0 -> d
    | Some _ -> invalid_arg "Nemesis.choice_plan: empty duration_choices"
    | None -> Array.map (fun f -> f *. horizon) [| 0.15; 0.3 |]
  in
  let pick label arr =
    let idx = choose ~label ~arity:(Array.length arr) in
    if idx < 0 || idx >= Array.length arr then arr.(0) else arr.(idx)
  in
  let pick_node label =
    let idx = choose ~label ~arity:nodes in
    if idx < 0 || idx >= nodes then 0 else idx
  in
  let timing label =
    let at = pick (label ^ "-at") at_choices in
    let d = pick (label ^ "-duration") duration_choices in
    (* Heal strictly before the horizon so the end state is fault-free. *)
    let d = if at +. d >= horizon then horizon -. at -. (horizon /. 100.0) else d in
    (at, max d (horizon /. 100.0))
  in
  let plan = ref [] in
  for i = 1 to crashes do
    let label = Printf.sprintf "nemesis-crash%d" i in
    let node = pick_node (label ^ "-node") in
    let at, duration = timing label in
    plan := Crash { node; at; duration } :: !plan
  done;
  let pick_pair label =
    let a = pick_node (label ^ "-a") in
    let off = choose ~label:(label ^ "-b") ~arity:(nodes - 1) in
    let off = if off < 0 || off >= nodes - 1 then 0 else off in
    (a, (a + 1 + off) mod nodes)
  in
  for i = 1 to partitions do
    let label = Printf.sprintf "nemesis-partition%d" i in
    let a, b = pick_pair label in
    let at, duration = timing label in
    plan := Partition { a; b; at; duration } :: !plan
  done;
  for i = 1 to slow_links do
    let label = Printf.sprintf "nemesis-slow%d" i in
    let src, dst = pick_pair label in
    let at, duration = timing label in
    plan := Slow_link { src; dst; at; duration; extra = extra_latency } :: !plan
  done;
  sort_plan (List.rev !plan)

let install ~engine target plan =
  validate ~nodes:target.nodes plan;
  let emit = Sim.Engine.emit engine in
  List.iter
    (fun ev ->
      match ev with
      | Crash { node; at; duration } ->
          Sim.Engine.schedule engine ~delay:at (fun () ->
              emit (Sim.Event.Nemesis_crash { site = node });
              target.crash node;
              Sim.Engine.sleep duration;
              emit (Sim.Event.Nemesis_recover { site = node });
              target.recover node)
      | Partition { a; b; at; duration } ->
          Sim.Engine.schedule engine ~delay:at (fun () ->
              emit (Sim.Event.Nemesis_partition { a; b });
              target.partition ~src:a ~dst:b true;
              target.partition ~src:b ~dst:a true;
              Sim.Engine.sleep duration;
              emit (Sim.Event.Nemesis_heal { a; b });
              target.partition ~src:a ~dst:b false;
              target.partition ~src:b ~dst:a false)
      | Slow_link { src; dst; at; duration; extra } ->
          Sim.Engine.schedule engine ~delay:at (fun () ->
              emit (Sim.Event.Nemesis_slow { src; dst; extra });
              target.slow ~src ~dst extra;
              Sim.Engine.sleep duration;
              emit (Sim.Event.Nemesis_restore { src; dst });
              target.slow ~src ~dst 0.0))
    plan

let network_target (net : _ Network.t) =
  {
    nodes = Network.node_count net;
    crash = (fun n -> Network.set_down net ~node:n true);
    recover = (fun n -> Network.set_down net ~node:n false);
    partition = (fun ~src ~dst flag -> Network.set_link_down net ~src ~dst flag);
    slow = (fun ~src ~dst extra -> Network.set_link_extra net ~src ~dst extra);
  }
