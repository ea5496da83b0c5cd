(* Stateless schedule exploration in the CHESS style: every enumerated
   schedule is a fresh run of the scenario from its initial state, steered
   through the engine's chooser hook by a decision vector.  A vector is a
   prefix of forced choices; past its end every choice defaults to 0.
   Running a vector records the decisions actually taken (with their
   arities), and each position [i >= |prefix|] with arity [a] spawns the
   alternative prefixes [D[0..i) ++ [alt]] for [alt in 1..a-1].  The
   frontier is a stack, so exploration is depth-first: deep alternatives
   are taken before shallow ones, which keeps the shared prefix of
   consecutive runs long and the per-run replay cost low.

   Pruning: at every choice point past the forced prefix the scenario's
   fingerprint is looked up in a table shared across the whole
   exploration.  A hit means some other explored path already reached a
   state with this digest at a choice point — the engine being
   deterministic, the futures coincide, so the run is cut (Engine.stop)
   and counted as pruned.  The guard [depth >= |prefix|] keeps a replayed
   prefix from pruning against its own parent's insertions.  Fingerprints
   are 64-bit hashes of a state summary, not the full state, so pruning
   trades a sliver of soundness for orders of magnitude of coverage;
   [~prune:false] turns it off. *)

type decision = { index : int; arity : int; label : string }

type stats = {
  schedules : int;
  completed : int;
  pruned : int;
  distinct_states : int;
  states_digest : Fingerprint.t;
  choice_points : int;
  max_depth : int;
  exhausted : bool;
  elapsed_s : float;
}

type violation = {
  v_decisions : decision list;
  v_messages : string list;
}

type result = {
  scenario : string;
  stats : stats;
  violation : violation option;
}

(* Outcome of running one decision vector to completion or cut. *)
type run_status =
  | Completed of string list * Fingerprint.t
      (* final-oracle messages (empty = clean) and final-state digest *)
  | Pruned_at of int
  | Step_violation of string list * int

let label_of_point = function
  | Sim.Engine.Branch { label; _ } -> label
  | Sim.Engine.Tie { labels } ->
      "tie("
      ^ String.concat "|"
          (List.map (Option.value ~default:"_") (Array.to_list labels))
      ^ ")"

let arity_of_point = function
  | Sim.Engine.Branch { arity; _ } -> arity
  | Sim.Engine.Tie { labels } -> Array.length labels

(* One run of [sc] under [prefix].  Returns the decisions taken (in
   order), the status, and — when [record_trace] — the engine trace as
   rendered lines.  [prune_seen], when given, is the shared fingerprint
   table; consulted and extended only at depths past the prefix. *)
let run_schedule ?(prefix = [||]) ?prune_seen ?(record_trace = false) sc =
  let engine =
    Sim.Engine.create ~seed:sc.Scenario.seed ~trace:record_trace
      ~trace_capacity:20_000 ()
  in
  let inst = ref None in
  let rev_decisions = ref [] in
  let depth = ref 0 in
  let cut = ref None in
  let chooser point =
    let arity = arity_of_point point in
    let d = !depth in
    (match !cut with
    | Some _ -> () (* already cut; the engine is draining its last event *)
    | None -> (
        (* Oracles and pruning look at the state *before* this decision;
           setup-time branches (inst not yet built) skip both. *)
        match !inst with
        | None -> ()
        | Some (i : Scenario.instance) -> (
            match i.check_step () with
            | [] -> (
                match prune_seen with
                | Some table when d >= Array.length prefix ->
                    let fp = i.fingerprint () in
                    if Hashtbl.mem table fp then begin
                      cut := Some (Pruned_at d);
                      Sim.Engine.stop engine
                    end
                    else Hashtbl.add table fp ()
                | _ -> ())
            | msgs ->
                cut := Some (Step_violation (msgs, d));
                Sim.Engine.stop engine)));
    match !cut with
    | Some _ -> 0
    | None ->
        let pick =
          if d < Array.length prefix then
            let p = prefix.(d) in
            if p < 0 || p >= arity then 0 else p
          else 0
        in
        rev_decisions :=
          { index = pick; arity; label = label_of_point point }
          :: !rev_decisions;
        depth := d + 1;
        pick
  in
  Sim.Engine.set_chooser engine (Some chooser);
  inst := Some (sc.Scenario.setup engine);
  Sim.Engine.run ~until:sc.Scenario.max_time engine;
  let status =
    match !cut with
    | Some s -> s
    | None ->
        let i = Option.get !inst in
        Completed (i.check_final (), i.fingerprint ())
  in
  let trace =
    if record_trace then
      List.map
        (fun e -> Format.asprintf "%a" Sim.Trace.pp_entry e)
        (Sim.Trace.entries (Sim.Engine.trace engine))
    else []
  in
  (List.rev !rev_decisions, status, trace)

(* Does this decision vector still reach a violation (step or final)?
   Used by the minimizer; runs without pruning or tracing. *)
let violates sc prefix =
  let _, status, _ = run_schedule ~prefix sc in
  match status with
  | Step_violation (msgs, _) -> Some msgs
  | Completed (msgs, _) when msgs <> [] -> Some msgs
  | Completed _ | Pruned_at _ -> None

let strip_trailing_zeros arr =
  let n = ref (Array.length arr) in
  while !n > 0 && arr.(!n - 1) = 0 do
    decr n
  done;
  Array.sub arr 0 !n

(* Greedy minimization: drop trailing zeros (they are the default
   anyway), then try to zero each remaining non-default decision in
   turn, keeping any reduction that still violates.  Every candidate is
   validated by a full replay, so the result is a genuine, replayable
   counterexample — typically the handful of decisions that actually
   constitute the race. *)
let minimize sc decisions =
  let cur = ref (strip_trailing_zeros decisions) in
  let i = ref 0 in
  while !i < Array.length !cur do
    (if !cur.(!i) <> 0 then begin
       let cand = Array.copy !cur in
       cand.(!i) <- 0;
       let cand = strip_trailing_zeros cand in
       if violates sc cand <> None then cur := cand
     end);
    incr i
  done;
  !cur

type replay_outcome = {
  r_decisions : decision list;
  r_messages : string list;
  r_fingerprint : Fingerprint.t option;
  r_trace : string list;
}

let replay ?(record_trace = true) sc decisions =
  let prefix = Array.of_list decisions in
  let r_decisions, status, r_trace = run_schedule ~prefix ~record_trace sc in
  let r_messages, r_fingerprint =
    match status with
    | Completed (msgs, fp) -> (msgs, Some fp)
    | Step_violation (msgs, _) -> (msgs, None)
    | Pruned_at _ -> assert false (* no prune table was given *)
  in
  { r_decisions; r_messages; r_fingerprint; r_trace }

let explore ?(budget = 10_000) ?(max_depth = 400) ?(prune = true)
    ?(minimize_violation = true) sc =
  let t0 = Sys.time () in
  let seen = if prune then Some (Hashtbl.create 4096) else None in
  let final_states = Hashtbl.create 1024 in
  let frontier = ref [ [||] ] in
  let completed = ref 0
  and pruned = ref 0
  and points = ref 0
  and deepest = ref 0 in
  let found = ref None in
  let exhausted = ref true in
  let stop = ref false in
  while (not !stop) && !frontier <> [] do
    if !completed + !pruned >= budget then begin
      exhausted := false;
      stop := true
    end
    else
      match !frontier with
      | [] -> ()
      | prefix :: rest -> (
          frontier := rest;
          let decisions, status, _ = run_schedule ~prefix ?prune_seen:seen sc in
          let n = List.length decisions in
          points := !points + n;
          if n > !deepest then deepest := n;
          let darr = Array.of_list (List.map (fun d -> d.index) decisions) in
          let arities = Array.of_list (List.map (fun d -> d.arity) decisions) in
          let expand_to =
            match status with
            | Pruned_at d ->
                incr pruned;
                d
            | Step_violation (msgs, _) ->
                found := Some (darr, msgs);
                stop := true;
                0
            | Completed (msgs, fp) ->
                incr completed;
                Hashtbl.replace final_states fp ();
                if msgs <> [] then begin
                  found := Some (darr, msgs);
                  stop := true;
                  0
                end
                else n
          in
          if not !stop then begin
            (* Push shallow alternatives first so the deepest ends up on
               top of the stack: depth-first order. *)
            for i = Array.length prefix to min expand_to max_depth - 1 do
              for alt = darr.(i) + 1 to arities.(i) - 1 do
                let p = Array.append (Array.sub darr 0 i) [| alt |] in
                frontier := p :: !frontier
              done
            done;
            (* Alternatives at depth >= [max_depth] are never tried, so
               skipping one leaves the space uncovered. *)
            for i = max (Array.length prefix) max_depth to expand_to - 1 do
              if darr.(i) + 1 < arities.(i) then exhausted := false
            done
          end)
  done;
  if !found <> None then exhausted := false;
  let violation =
    match !found with
    | None -> None
    | Some (darr, _) ->
        let minimal = if minimize_violation then minimize sc darr else darr in
        let out = replay ~record_trace:false sc (Array.to_list minimal) in
        Some { v_decisions = out.r_decisions; v_messages = out.r_messages }
  in
  {
    scenario = sc.Scenario.name;
    stats =
      {
        schedules = !completed + !pruned;
        completed = !completed;
        pruned = !pruned;
        distinct_states = Hashtbl.length final_states;
        states_digest =
          Fingerprint.list Fingerprint.int64 Fingerprint.empty
            (List.sort Int64.compare
               (List.of_seq (Hashtbl.to_seq_keys final_states)));
        choice_points = !points;
        max_depth = !deepest;
        exhausted = !exhausted;
        elapsed_s = Sys.time () -. t0;
      };
    violation;
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "schedules=%d (completed=%d pruned-converged=%d) distinct_states=%d \
     states=%s choice_points=%d max_depth=%d exhausted=%b elapsed=%.2fs"
    s.schedules s.completed s.pruned s.distinct_states
    (Fingerprint.to_hex s.states_digest)
    s.choice_points s.max_depth s.exhausted s.elapsed_s
