exception Node_down of int
exception Rpc_timeout of int

type 'm t = {
  engine : Sim.Engine.t;
  nodes : int;
  latency : Latency.t;
  send_occupancy : float;
  (* Sender serialization: earliest time each node's transmitter is free. *)
  send_clock : float array;
  call_timeout : float;
  batch_window : float;
  metrics : Sim.Metrics.t option;
  rng : Sim.Rng.t;
  handlers : (src:int -> 'm -> unit) option array;
  down : bool array;
  link_down : bool array array;
  (* Nemesis-injected extra one-way latency per (src,dst) link. *)
  link_extra : float array array;
  (* FIFO enforcement: earliest admissible delivery time per (src,dst). *)
  link_clock : float array array;
  link_sent : int array array;
  (* Coalescing: payloads queued per (src,dst) awaiting the window flush. *)
  batch : (unit -> unit) Queue.t array array;
  batch_armed : bool array array;
  mutable sent : int;
  mutable dropped : int;
}

let create ~engine ~nodes ?(latency = Latency.Constant 1.0)
    ?(send_occupancy = 0.0) ?(call_timeout = infinity) ?(batch_window = 0.0)
    ?metrics () =
  if nodes <= 0 then invalid_arg "Network.create: need at least one node";
  if batch_window < 0.0 then invalid_arg "Network.create: negative batch window";
  if send_occupancy < 0.0 then
    invalid_arg "Network.create: negative send occupancy";
  {
    engine;
    nodes;
    latency;
    send_occupancy;
    send_clock = Array.make nodes 0.0;
    call_timeout;
    batch_window;
    metrics;
    rng = Sim.Rng.split (Sim.Engine.rng engine);
    handlers = Array.make nodes None;
    down = Array.make nodes false;
    link_down = Array.make_matrix nodes nodes false;
    link_extra = Array.make_matrix nodes nodes 0.0;
    link_clock = Array.make_matrix nodes nodes 0.0;
    link_sent = Array.make_matrix nodes nodes 0;
    batch = Array.init nodes (fun _ -> Array.init nodes (fun _ -> Queue.create ()));
    batch_armed = Array.make_matrix nodes nodes false;
    sent = 0;
    dropped = 0;
  }

let node_count t = t.nodes

let check_node t node =
  if node < 0 || node >= t.nodes then invalid_arg "Network: no such node"

let set_handler t ~node handler =
  check_node t node;
  t.handlers.(node) <- Some handler

let set_down t ~node flag =
  check_node t node;
  t.down.(node) <- flag

let is_down t ~node =
  check_node t node;
  t.down.(node)

let set_link_down t ~src ~dst flag =
  check_node t src;
  check_node t dst;
  t.link_down.(src).(dst) <- flag

let link_is_down t ~src ~dst = t.down.(src) || t.down.(dst) || t.link_down.(src).(dst)

let set_link_extra t ~src ~dst extra =
  check_node t src;
  check_node t dst;
  if extra < 0.0 then invalid_arg "Network.set_link_extra: negative latency";
  t.link_extra.(src).(dst) <- extra

let messages_sent t = t.sent
let messages_dropped t = t.dropped

let link_count t ~src ~dst =
  check_node t src;
  check_node t dst;
  t.link_sent.(src).(dst)

(* Latency for one message on link src->dst, respecting per-link FIFO:
   delivery time is clamped to be no earlier than the previous delivery on
   the same link. *)
let delivery_delay t ~src ~dst =
  let raw =
    (if src = dst then 0.0 else Latency.sample t.latency t.rng)
    +. t.link_extra.(src).(dst)
  in
  let now = Sim.Engine.now t.engine in
  (* Sender serialization: with a nonzero occupancy, each remote message
     reserves the source's transmitter for [send_occupancy] before it can
     depart, so a wide fan-out pays O(n) at the sender instead of being
     free.  Local (self) messages skip the transmitter.  The default 0.0
     leaves departure at [now] — behavior identical to an occupancy-free
     network. *)
  let depart =
    if t.send_occupancy > 0.0 && src <> dst then begin
      let free = t.send_clock.(src) in
      let d = (if free > now then free else now) +. t.send_occupancy in
      t.send_clock.(src) <- d;
      d
    end
    else now
  in
  let at = depart +. raw in
  let at = if at < t.link_clock.(src).(dst) then t.link_clock.(src).(dst) else at in
  t.link_clock.(src).(dst) <- at;
  at -. now

let record t event =
  match t.metrics with Some m -> Sim.Metrics.record m event | None -> ()

(* Ship everything queued on (src,dst) as one envelope: one latency sample,
   one arrival instant, the payloads scheduled in FIFO order at it.  Each
   payload still runs as its own process — handlers may block (lock waits,
   counter waits), and a blocking payload must not stall the rest of the
   envelope.  A link cut (or source crash) since the payloads were queued
   drops the whole envelope — the messages were sitting in src's send
   buffer. *)
let flush_batch t ~src ~dst =
  t.batch_armed.(src).(dst) <- false;
  let q = t.batch.(src).(dst) in
  let n = Queue.length q in
  if n > 0 then begin
    let payloads = List.of_seq (Queue.to_seq q) in
    Queue.clear q;
    if t.down.(src) || t.link_down.(src).(dst) then t.dropped <- t.dropped + n
    else begin
      record t (Sim.Event.Envelope { src });
      let delay = delivery_delay t ~src ~dst in
      List.iter
        (fun payload -> Sim.Engine.schedule t.engine ~delay payload)
        payloads
    end
  end

(* The transport: every request, reply, and one-way message leg goes
   through here.  [payload] runs at the destination after the link latency;
   it carries its own arrival-time checks (destination down, caller
   settled).  With a zero window each payload is its own envelope,
   scheduled exactly as an unbatched network would — same RNG draws, same
   event order.  With a window, payloads to one destination pool until the
   window closes and share a single envelope. *)
let transmit t ~src ~dst payload =
  if t.batch_window <= 0.0 then begin
    record t (Sim.Event.Envelope { src });
    let delay = delivery_delay t ~src ~dst in
    Sim.Engine.schedule t.engine ~delay payload
  end
  else begin
    Queue.add payload t.batch.(src).(dst);
    if not t.batch_armed.(src).(dst) then begin
      t.batch_armed.(src).(dst) <- true;
      Sim.Engine.schedule t.engine ~delay:t.batch_window (fun () ->
          flush_batch t ~src ~dst)
    end
  end

let deliver t ~src ~dst msg =
  if t.down.(dst) then t.dropped <- t.dropped + 1
  else
    match t.handlers.(dst) with
    | None -> invalid_arg "Network: destination has no handler"
    | Some handler -> handler ~src msg

let send t ~src ~dst msg =
  check_node t src;
  check_node t dst;
  t.sent <- t.sent + 1;
  t.link_sent.(src).(dst) <- t.link_sent.(src).(dst) + 1;
  if t.down.(src) || t.link_down.(src).(dst) then t.dropped <- t.dropped + 1
  else transmit t ~src ~dst (fun () -> deliver t ~src ~dst msg)

(* RPC with timeout-based failure detection.  The caller has no oracle: a
   down destination, a cut link, or a crash mid-flight all look the same —
   silence — and surface only as [Rpc_timeout] once [timeout] simulated
   time has elapsed.  Legs that cannot be delivered (down node, cut link)
   are counted in [messages_dropped], mirroring [send].

   The timeout clock starts at the call, not at the batch flush: a request
   parked in a coalescing window is already "in flight" from the caller's
   point of view, so a window that outlasts the timeout (or a partition
   that eats the queued envelope) surfaces as an ordinary [Rpc_timeout].

   The timeout event fires even when the caller's own node has crashed:
   the suspended process is a zombie whose unwinding (e.g. 2PC abort
   cleanup) must still run to release remote locks.  Only a *successful
   reply* is withheld from a crashed caller — that is the message a dead
   node can no longer receive. *)
let call ?timeout t ~src ~dst thunk =
  check_node t src;
  check_node t dst;
  let timeout = match timeout with Some x -> x | None -> t.call_timeout in
  t.sent <- t.sent + 1;
  t.link_sent.(src).(dst) <- t.link_sent.(src).(dst) + 1;
  if t.down.(src) then begin
    (* Symmetric with [send]: a dead node cannot originate traffic. *)
    t.dropped <- t.dropped + 1;
    raise (Node_down src)
  end;
  let request_ok = not t.link_down.(src).(dst) in
  if not request_ok then t.dropped <- t.dropped + 1;
  record t (Sim.Event.Rpc_call { src; dst });
  let issued_at = Sim.Engine.now t.engine in
  let outcome =
    Sim.Engine.suspend (fun resume ->
        let settled = ref false in
        let settle result =
          if not !settled then begin
            settled := true;
            resume result
          end
        in
        (if request_ok then
           transmit t ~src ~dst (fun () ->
               if t.down.(dst) then
                 (* Request lost in the crash; the thunk never runs. *)
                 t.dropped <- t.dropped + 1
               else begin
                 (* The thunk runs at the destination; failures travel
                    back to the caller instead of crashing the engine. *)
                 let result = try Ok (thunk ()) with e -> Error e in
                 t.sent <- t.sent + 1;
                 t.link_sent.(dst).(src) <- t.link_sent.(dst).(src) + 1;
                 if t.link_down.(dst).(src) then t.dropped <- t.dropped + 1
                 else
                   transmit t ~src:dst ~dst:src (fun () ->
                       if t.down.(src) || !settled then
                         (* Caller crashed or already timed out: the reply
                            reaches a dead mailbox. *)
                         t.dropped <- t.dropped + 1
                       else begin
                         (* A reply settled the call: record its round trip
                            (the callee's own exception still counts as a
                            completed RPC — only silence is a timeout). *)
                         let rtt = Sim.Engine.now t.engine -. issued_at in
                         record t (Sim.Event.Rpc_reply { src; dst; rtt });
                         settle result
                       end)
               end));
        if timeout < infinity then
          Sim.Engine.schedule t.engine ~delay:timeout (fun () ->
              if not !settled then begin
                record t (Sim.Event.Rpc_timeout { src; dst });
                settle (Error (Rpc_timeout dst))
              end))
  in
  match outcome with Ok v -> v | Error e -> raise e

let run_at t ~src ~dst thunk =
  if src = dst then thunk () else call t ~src ~dst thunk
