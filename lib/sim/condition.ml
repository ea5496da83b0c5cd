(* Waiters are the parked processes' resume functions, oldest first; a
   broadcast takes the whole queue at once, so a waiter that parks again
   while the broadcast runs waits for the next one. *)
type t = { queue : (unit -> unit) Queue.t }

let create () = { queue = Queue.create () }

let await t = Engine.suspend (fun resume -> Queue.push resume t.queue)

let await_until t ~pred =
  while not (pred ()) do
    await t
  done

let broadcast t =
  if not (Queue.is_empty t.queue) then begin
    let all = Queue.create () in
    Queue.transfer t.queue all;
    Queue.iter (fun resume -> resume ()) all
  end
