(* A real spinlock latch for the multicore backend.

   The simulator's Lockmgr.Latch is accounting-only: the DES is
   cooperatively scheduled, so "latched" sections there can never be
   preempted and the latch just counts acquisitions.  On OCaml 5 domains
   the sections genuinely race, so this is a test-and-set spinlock with
   [Domain.cpu_relax] in the wait loop — the paper's latch discipline
   (short critical sections, held for a handful of instructions, never
   across blocking work).

   The latch is one word holding [2 * acquisitions + held]: acquiring
   CASes an even value to the next odd one and releasing increments it
   back to even, so the lifetime acquisition count costs no second
   contended atomic. *)

type t = int Atomic.t

let create () = Atomic.make 0

let try_acquire t =
  let w = Atomic.get t in
  w land 1 = 0 && Atomic.compare_and_set t w (w + 1)

let rec acquire t =
  if not (try_acquire t) then begin
    (* Spin on a plain read first so waiters don't hammer the cache line
       with failed CASes. *)
    while Atomic.get t land 1 = 1 do
      Domain.cpu_relax ()
    done;
    acquire t
  end

let release t = Atomic.incr t

let with_latch t f =
  acquire t;
  match f () with
  | v ->
      release t;
      v
  | exception e ->
      release t;
      raise e

let acquisitions t = (Atomic.get t + 1) / 2
