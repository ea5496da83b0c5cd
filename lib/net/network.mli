(** Simulated message-passing network between [n] nodes.

    Delivery is reliable and, per (source, destination) link, FIFO: a later
    send never overtakes an earlier one.  Each delivered message runs the
    destination's handler in a fresh simulation process, so handlers may
    block (acquire locks, await conditions) without stalling the network.

    Nodes can be marked down, in which case messages addressed to them are
    counted as dropped; upper layers decide what a crash means for state.

    There is no broadcast primitive: a fan-out is one {!send} per
    destination, so its counters and latency draws follow the sender's
    loop order. *)

type 'm t

val create :
  engine:Sim.Engine.t ->
  nodes:int ->
  ?latency:Latency.t ->
  ?send_occupancy:float ->
  ?call_timeout:float ->
  ?batch_window:float ->
  ?metrics:Sim.Metrics.t ->
  unit ->
  'm t
(** [latency] defaults to [Constant 1.0]; messages a node sends to itself
    take no time.  [call_timeout] is the default timeout for {!call}
    (simulated seconds); it defaults to [infinity], i.e. callers wait
    forever unless they pass an explicit [?timeout].

    [send_occupancy] (default [0.]) models sender-side serialization:
    each remote message reserves the source node's transmitter for that
    long before departing, so a node fanning out to [n] destinations pays
    [n *. send_occupancy] at the sender — the cost that makes a
    coordinator addressing all O(n) sites directly slow in real clusters
    and that a wider relay tree avoids.  Self-messages bypass the transmitter.
    At the default [0.] departure is immediate and behavior (including
    RNG draws and event order) is identical to earlier builds.

    [batch_window] (default [0.]) enables per-destination message
    coalescing: every message leg (one-way send, RPC request, RPC reply)
    queued on one (source, destination) link within the window rides a
    single {e envelope} — one latency sample, one delivery event, payloads
    applied in FIFO order on arrival.  The first message of a batch arms
    the window timer; a link cut or source crash before the flush drops
    the whole envelope.  RPC timeouts still run from {e call} time, not
    flush time.  With the default window of [0.] every message is its own
    envelope and the network behaves exactly as an unbatched build —
    same latency draws, same event ordering.

    When [metrics] is given, every {!call} is recorded against the
    calling node: one [rpc_call] per issued call, the round-trip time
    into the latency histogram when a reply settles it (the callee's
    exception travelling back still counts as a completed RPC), and one
    [rpc_timeout] when the timeout settles it instead.  Envelopes are
    recorded against their source node; the registry is the only place
    they are counted.  Each envelope carries one or more message legs
    ([batch_window = 0] gives one envelope per delivered leg). *)

val node_count : _ t -> int

val set_handler : 'm t -> node:int -> (src:int -> 'm -> unit) -> unit
(** Install the message handler for [node], replacing any previous one.
    Messages delivered to a node with no handler raise [Invalid_argument]. *)

val send : 'm t -> src:int -> dst:int -> 'm -> unit
(** Asynchronous send; the caller continues immediately. *)

val call : ?timeout:float -> _ t -> src:int -> dst:int -> (unit -> 'r) -> 'r
(** Remote procedure call: after one network latency the thunk runs at the
    destination (in its own process); after another latency the caller
    resumes with the result.  The caller must be inside a process.

    Failure detection is timeout-based — there is no oracle.  If the
    request or reply leg is lost (destination down when the request lands,
    link cut in either direction, caller down when the reply lands) the
    caller hears nothing and [Rpc_timeout dst] is raised after [timeout]
    simulated seconds ([?timeout] overrides the network's [call_timeout];
    with an infinite timeout a lost call suspends the caller forever).
    Lost legs are counted in {!messages_dropped}.  The only synchronous
    error is [Node_down src], raised when the {e caller's own} node is
    marked down at send time — local knowledge, mirroring {!send}.

    The timeout fires even if the caller's node crashes mid-call, so that
    the suspended process can unwind and release any remote resources it
    holds; a successful reply, by contrast, is never delivered to a
    crashed or already-timed-out caller. *)

val run_at : _ t -> src:int -> dst:int -> (unit -> 'r) -> 'r
(** Run the thunk at [dst] on behalf of [src]: in place when they are the
    same node, as a {!call} with the default timeout otherwise.  The one
    way the database layers reach another site. *)

exception Node_down of int

exception Rpc_timeout of int
(** [Rpc_timeout dst] — a {!call} to [dst] got no reply within the
    timeout.  The callee may or may not have executed the request. *)

val set_down : _ t -> node:int -> bool -> unit
val is_down : _ t -> node:int -> bool

val set_link_down : _ t -> src:int -> dst:int -> bool -> unit
(** Partition a single directed link: sends on it are dropped; {!call}s
    that would use it (either direction) raise [Node_down].  Node state is
    untouched — this models a network partition rather than a crash. *)

val link_is_down : _ t -> src:int -> dst:int -> bool

val set_link_extra : _ t -> src:int -> dst:int -> float -> unit
(** Add [extra] one-way latency to every subsequent message on the
    directed link (0. restores normal speed).  Used by the nemesis to
    model slow links without cutting them. *)

(** {1 Statistics} *)

val messages_sent : _ t -> int
val messages_dropped : _ t -> int

val link_count : _ t -> src:int -> dst:int -> int
