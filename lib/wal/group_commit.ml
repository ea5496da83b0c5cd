exception Crashed

type 'v t = {
  engine : Sim.Engine.t;
  disk : Disk.t;
  log : 'v Log.t;
  window : float;
  max_batch : int;
  ack_early : bool;
  on_force : (records:int -> unit) option;
  mutable waiters : ((unit, exn) result -> unit) list;
  mutable flush_scheduled : bool;
  mutable forcing : bool;
  mutable crashed : bool;
  mutable generation : int;
}

let create ~engine ~disk ~log ?(window = 0.0) ?(max_batch = 64)
    ?(ack_early = false) ?on_force () =
  if window < 0.0 then invalid_arg "Group_commit.create: negative window";
  if max_batch < 1 then invalid_arg "Group_commit.create: max_batch < 1";
  {
    engine;
    disk;
    log;
    window;
    max_batch;
    ack_early;
    on_force;
    waiters = [];
    flush_scheduled = false;
    forcing = false;
    crashed = false;
    generation = 0;
  }

let active t = t.window > 0.0 || Disk.force_latency t.disk > 0.0
let disk t = t.disk
let pending t = List.length t.waiters

(* Force everything currently in the log and note the work done.  Runs
   inside a process; with a nonzero disk latency the records become durable
   only when the sleep completes, and a crash during the sleep leaves them
   volatile. *)
let force_now t =
  let target = Log.length t.log in
  if target > Log.durable_length t.log then begin
    Disk.force t.disk;
    if not t.crashed then begin
      (* Records newly covered by THIS force: an earlier force queued
         ahead of us on the serial disk may have marked part of our range
         durable while we slept. *)
      let records = target - Log.durable_length t.log in
      if records > 0 then begin
        Log.mark_durable_to t.log target;
        match t.on_force with Some f -> f ~records | None -> ()
      end
    end
  end

(* One batch: take every queued waiter, force once, release them all.
   Waiters that arrive while the disk is busy form the next batch, which
   is flushed immediately — the disk never idles with committers queued.
   Must run inside a process (the force sleeps). *)
let rec flush t =
  t.flush_scheduled <- false;
  if (not t.crashed) && (not t.forcing) && t.waiters <> [] then begin
    t.forcing <- true;
    t.generation <- t.generation + 1;
    let batch = List.rev t.waiters in
    t.waiters <- [];
    force_now t;
    t.forcing <- false;
    if t.crashed then
      (* The force never completed: the committers' records may be lost.
         Fail them so the (zombie) commit paths unwind. *)
      List.iter (fun k -> k (Error Crashed)) batch
    else begin
      List.iter (fun k -> k (Ok ())) batch;
      if t.waiters <> [] then flush t
    end
  end

(* The flusher is always a fresh scheduled process — [sync]'s register
   callback runs in the engine's handler context where sleeping is not
   allowed.  A full batch schedules an immediate flush; the earlier
   window timer then finds [flush_scheduled] cleared and stands down. *)
let schedule_flush t ~delay =
  t.flush_scheduled <- true;
  let gen = t.generation in
  Sim.Engine.schedule t.engine ~delay (fun () ->
      if t.flush_scheduled && gen = t.generation then flush t)

let sync t =
  if t.crashed then raise Crashed;
  let target = Log.length t.log in
  if Log.durable_length t.log >= target then ()
  else if t.window <= 0.0 then begin
    (* No batching: the committer forces its own records (classic one
       force per commit).  With a zero-latency disk this is synchronous
       and scheduling-invisible. *)
    force_now t;
    if t.crashed then raise Crashed
  end
  else begin
    let enqueue resume =
      (if t.ack_early then begin
         (* Deliberately broken variant for the model checker: acknowledge
            as soon as the record is queued, before any force.  The force
            still happens on schedule (a no-op waiter keeps the batch
            machinery honest) — but a crash in between loses an acked
            commit. *)
         t.waiters <- (fun _ -> ()) :: t.waiters;
         resume (Ok ())
       end
       else t.waiters <- resume :: t.waiters);
      if List.length t.waiters >= t.max_batch && not t.forcing then
        schedule_flush t ~delay:0.0
      else if (not t.flush_scheduled) && not t.forcing then
        schedule_flush t ~delay:t.window
    in
    match Sim.Engine.suspend enqueue with
    | Ok () -> ()
    | Error e -> raise e
  end

let crash t =
  if not t.crashed then begin
    t.crashed <- true;
    t.generation <- t.generation + 1;
    let orphans = List.rev t.waiters in
    t.waiters <- [];
    (* Waiters parked in the queue (the force they were waiting for never
       started) lose their records with the crash; release them so their
       processes can unwind.  Waiters held by an in-flight [flush] are
       failed by the flush itself when its force returns. *)
    List.iter (fun k -> k (Error Crashed)) orphans
  end
