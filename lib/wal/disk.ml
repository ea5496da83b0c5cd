type t = { force_latency : float; mutable busy_until : float }

let create ?(force_latency = 0.0) () =
  if force_latency < 0.0 then invalid_arg "Disk.create: negative force latency";
  { force_latency; busy_until = 0.0 }

let force_latency t = t.force_latency

(* The disk is a serial resource: concurrent forces queue behind each
   other ([busy_until] is the virtual time the head frees up), which is
   exactly why group commit pays — one force serves a whole batch instead
   of each committer queueing for its own.

   A force with zero latency completes synchronously — no engine
   interaction at all, so the zero-cost configuration schedules events
   exactly as a build without the disk model would. *)
let force t =
  if t.force_latency > 0.0 then begin
    let now = Sim.Engine.now (Sim.Engine.current ()) in
    let start = if t.busy_until > now then t.busy_until else now in
    let finish = start +. t.force_latency in
    t.busy_until <- finish;
    Sim.Engine.sleep (finish -. now)
  end

