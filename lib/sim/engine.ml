(* An event is a closure plus the name of the process it belongs to (when
   known).  The label is what makes scheduling choices meaningful to an
   external chooser: events of one named process are program-ordered, so
   permuting them is never a real choice, while events of distinct
   processes racing at the same virtual time are. *)
type ev = { fn : unit -> unit; label : string option }

type choice_point =
  | Tie of { labels : string option array }
  | Branch of { label : string; arity : int }

type chooser = choice_point -> int

type t = {
  mutable clock : float;
  queue : ev Heap.t;
  mutable seq : int;
  root_rng : Rng.t;
  trace_rec : Trace.t;
  mutable running : bool;
  mutable suspended : int;
  mutable executed : int;
      (* events popped and run since creation; divided by wall-clock time
         this is the simulator's events/sec throughput (bench engine) *)
  mutable current_name : string option;
      (* name of the process whose code is executing right now; threaded
         into trace entries so per-process events are attributable *)
  mutable chooser : chooser option;
      (* when installed, ready-queue ties and Engine.branch calls are
         resolved by this callback instead of insertion order — the hook
         the model checker (lib/check) drives schedule exploration with *)
}

exception Not_in_process
exception Deadlocked of string

type _ Effect.t +=
  | Suspend : (('a -> unit) -> unit) -> 'a Effect.t
  | Sleep : float -> unit Effect.t
  | Current_engine : t Effect.t

let create ?(seed = 0x5EEDL) ?(trace = true) ?trace_capacity () =
  {
    clock = 0.0;
    queue = Heap.create ~dummy:{ fn = (fun () -> ()); label = None } ();
    seq = 0;
    root_rng = Rng.create seed;
    trace_rec = Trace.create ~enabled:trace ?capacity:trace_capacity ();
    running = false;
    suspended = 0;
    executed = 0;
    current_name = None;
    chooser = None;
  }

let now t = t.clock
let rng t = t.root_rng
let trace t = t.trace_rec

let set_chooser t chooser = t.chooser <- chooser

let branch t ~label arity =
  if arity <= 0 then invalid_arg "Engine.branch: arity must be positive";
  match t.chooser with
  | None -> 0
  | Some choose ->
      let c = choose (Branch { label; arity }) in
      if c < 0 || c >= arity then 0 else c

let emit t event =
  Trace.emit t.trace_rec ~time:t.clock ?process:t.current_name event

let schedule_at t ~time ?label fn =
  t.seq <- t.seq + 1;
  Heap.push t.queue ~time ~seq:t.seq { fn; label }

(* Execute one segment of a (possibly named) process: the name is active
   while its code runs, so trace entries emitted by the process carry it;
   it is restored on suspension, completion, or escape. *)
let run_named t name f =
  match name with
  | None -> f ()
  | Some _ ->
      let saved = t.current_name in
      t.current_name <- name;
      Fun.protect ~finally:(fun () -> t.current_name <- saved) f

(* Run [fn] as a process: a deep handler interprets the suspension effects.
   The handler stays installed across resumptions, so a process suspended in
   a Condition resumes under the same engine.  [name] is re-established
   around every resumption segment. *)
let run_process t ?name fn =
  let open Effect.Deep in
  run_named t name (fun () ->
      match_with fn ()
        {
          retc = (fun () -> ());
          exnc = (fun e -> raise e);
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Suspend register ->
                  Some
                    (fun (k : (a, _) continuation) ->
                      t.suspended <- t.suspended + 1;
                      register (fun v ->
                          t.suspended <- t.suspended - 1;
                          schedule_at t ~time:t.clock ?label:name (fun () ->
                              run_named t name (fun () -> continue k v))))
              | Sleep delay ->
                  Some
                    (fun (k : (a, _) continuation) ->
                      let delay = if delay < 0.0 then 0.0 else delay in
                      schedule_at t ~time:(t.clock +. delay) ?label:name
                        (fun () -> run_named t name (fun () -> continue k ())))
              | Current_engine ->
                  Some (fun (k : (a, _) continuation) -> continue k t)
              | _ -> None);
        })

let spawn t ?name fn =
  (match name with
  | Some n ->
      Trace.emit t.trace_rec ~time:t.clock ~process:n (Event.Spawn { name = n })
  | None -> ());
  schedule_at t ~time:t.clock ?label:name (fun () -> run_process t ?name fn)

let schedule t ?name ~delay fn =
  let delay = if delay < 0.0 then 0.0 else delay in
  schedule_at t ~time:(t.clock +. delay) ?label:name (fun () ->
      run_process t ?name fn)

let stop t = t.running <- false

let suspended_count t = t.suspended
let pending_events t = Heap.size t.queue
let events_executed t = t.executed

let pending_summary t =
  let acc = ref [] in
  Heap.iter t.queue (fun time _seq ev -> acc := (time, ev.label) :: !acc);
  List.sort compare !acc

(* Chooser-mode pop, called with the minimal virtual time [tmin] already
   read off the heap.  When exactly one event sits at [tmin] there is no
   scheduling alternative, so it runs directly (the common case even under
   exploration).  Otherwise every event at [tmin] is drained, grouped into
   scheduling alternatives — one group per named process (its events stay
   in program order), one per anonymous event — and the chooser picks which
   group's first event runs; the rest go back on the heap with their
   original sequence numbers, so the unchosen alternatives keep their
   relative order and remain candidates at the next iteration. *)
let pop_event_choosing t choose tmin =
  match Heap.pop t.queue with
  | None -> None
  | Some ((_, _, ev1) as first) ->
      if Heap.is_empty t.queue || Heap.min_time t.queue <> tmin then Some ev1
      else begin
        let rec drain acc =
          if (not (Heap.is_empty t.queue)) && Heap.min_time t.queue = tmin then
            match Heap.pop t.queue with
            | Some e -> drain (e :: acc)
            | None -> acc
          else acc
        in
        let batch = first :: List.rev (drain []) in
        let seen = Hashtbl.create 8 in
        let candidates =
          List.filter
            (fun (_, _, ev) ->
              match ev.label with
              | None -> true
              | Some l ->
                  if Hashtbl.mem seen l then false
                  else begin
                    Hashtbl.add seen l ();
                    true
                  end)
            batch
        in
        let chosen =
          match candidates with
          | [ _ ] -> List.hd batch
          | _ ->
              let labels =
                Array.of_list (List.map (fun (_, _, ev) -> ev.label) candidates)
              in
              let idx = choose (Tie { labels }) in
              let idx =
                if idx < 0 || idx >= Array.length labels then 0 else idx
              in
              List.nth candidates idx
        in
        let _, chosen_seq, chosen_ev = chosen in
        List.iter
          (fun (time, seq, ev) ->
            if seq <> chosen_seq then Heap.push t.queue ~time ~seq ev)
          batch;
        Some chosen_ev
      end

let run ?until t =
  let limit = match until with None -> infinity | Some u -> u in
  t.running <- true;
  let rec loop () =
    if not t.running || Heap.is_empty t.queue then ()
    else
      let time = Heap.min_time t.queue in
      if time > limit then t.clock <- limit
      else
        match t.chooser with
        | None ->
            (* hot path: no chooser installed — straight off the heap with
               no option or tuple allocation per event *)
            let ev = Heap.pop_unsafe t.queue in
            t.clock <- time;
            t.executed <- t.executed + 1;
            ev.fn ();
            loop ()
        | Some choose -> (
            match pop_event_choosing t choose time with
            | None -> ()
            | Some ev ->
                t.clock <- time;
                t.executed <- t.executed + 1;
                ev.fn ();
                loop ())
  in
  loop ();
  t.running <- false

(* Effect-performing helpers; valid only inside a process. *)

let not_in_process () = raise Not_in_process

let current () =
  try Effect.perform Current_engine with Effect.Unhandled _ -> not_in_process ()

let sleep delay =
  try Effect.perform (Sleep delay) with Effect.Unhandled _ -> not_in_process ()

let suspend register =
  try Effect.perform (Suspend register)
  with Effect.Unhandled _ -> not_in_process ()

let yield () = sleep 0.0
