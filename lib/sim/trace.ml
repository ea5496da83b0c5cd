type entry = { time : float; event : Event.t; process : string option }

let dummy = { time = nan; event = Spawn { name = "" }; process = None }

(* Two storage modes, selected by [capacity]:
   - unbounded: a newest-first list, O(1) cons per emit;
   - bounded: a preallocated ring of exactly [capacity] slots, so a hot
     bounded trace (schedule exploration creates millions of short-lived
     engines) never conses per emit.
   Overwritten ring slots make dropped entries collectable. *)
type t = {
  enabled : bool;
  capacity : int option;
  mutable rev_entries : entry list; (* unbounded mode *)
  ring : entry array; (* bounded mode *)
  mutable head : int; (* next ring slot to write *)
  mutable count : int; (* live ring entries *)
}

let create ?(enabled = true) ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Trace.create: capacity must be positive"
  | _ -> ());
  (* A disabled trace records nothing, so it needs no ring: the explorer
     creates one engine per schedule. *)
  let ring =
    match capacity with Some c when enabled -> Array.make c dummy | _ -> [||]
  in
  { enabled; capacity; rev_entries = []; ring; head = 0; count = 0 }

let emit t ~time ?process event =
  if t.enabled then
    let e = { time; event; process } in
    match t.capacity with
    | None -> t.rev_entries <- e :: t.rev_entries
    | Some cap ->
        t.ring.(t.head) <- e;
        t.head <- (t.head + 1) mod cap;
        if t.count < cap then t.count <- t.count + 1

let entries t =
  match t.capacity with
  | None -> List.rev t.rev_entries
  | Some cap ->
      let start = (t.head - t.count + cap) mod cap in
      List.init t.count (fun i -> t.ring.((start + i) mod cap))

let pp_entry ppf e =
  Format.fprintf ppf "[%8.2f] %-12s " e.time (Event.tag e.event);
  Option.iter (Format.fprintf ppf "<%s> ") e.process;
  Event.pp ppf e.event
