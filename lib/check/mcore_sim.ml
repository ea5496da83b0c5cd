(* The multicore backend under the schedule explorer.  The backend is
   written against Mcore.Backend.SYNC; here a cell is a plain ref and
   each access by a logical domain is a yield point of that domain's
   Sim process, so the explorer's ready-queue ties decide the order of
   the domains' atomic steps.

   The run's bookkeeping is domain-local state, set by [spawn]: the
   checked operations take no run argument, and one run per OCaml domain
   is all the explorer ever does. *)

type t = {
  steps : int array;  (* checked steps taken, per logical domain *)
  seen : int array;  (* [writes] when each domain last left [relax] *)
  mutable current : int;  (* the domain whose code runs now, or -1 *)
  mutable writes : int;  (* checked writes so far *)
  wrote : Sim.Condition.t;  (* broadcast by every checked write *)
}

let run : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* The run whose domain code is executing, if any: setup, oracles and
   fingerprints run between steps, where [current] is -1. *)
let active () =
  match Domain.DLS.get run with
  | Some r when r.current >= 0 -> Some r
  | _ -> None

(* Park the running domain until [wait] returns, marking no domain as
   running meanwhile. *)
let off_cpu r wait =
  let me = r.current in
  r.current <- -1;
  wait ();
  r.current <- me

let step () =
  match active () with
  | None -> ()
  | Some r ->
      r.steps.(r.current) <- r.steps.(r.current) + 1;
      off_cpu r Sim.Engine.yield

let wrote () =
  match active () with
  | None -> ()
  | Some r ->
      r.writes <- r.writes + 1;
      Sim.Condition.broadcast r.wrote

module Sync = struct
  type 'a t = 'a ref

  let make = ref

  let get c =
    step ();
    !c

  let set c v =
    step ();
    c := v;
    wrote ()

  let compare_and_set c seen v =
    step ();
    !c == seen
    && begin
      c := v;
      wrote ();
      true
    end

  let fetch_and_add c n =
    step ();
    let old = !c in
    c := old + n;
    wrote ();
    old

  (* A spin loop re-reads only cells, so if no checked write happened
     since this domain last relaxed, before this iteration's reads, the
     next iteration would read the same values: wait for a write. *)
  let relax _ =
    match active () with
    | None -> ()
    | Some r ->
        if r.seen.(r.current) = r.writes then
          off_cpu r (fun () -> Sim.Condition.await r.wrote);
        r.seen.(r.current) <- r.writes
end

module Backend = Mcore.Backend.Make (Sync)

let spawn engine bodies =
  let n = List.length bodies in
  let r =
    {
      steps = Array.make n 0;
      seen = Array.make n 0;
      current = -1;
      writes = 0;
      wrote = Sim.Condition.create ();
    }
  in
  Domain.DLS.set run (Some r);
  List.iteri
    (fun d (name, body) ->
      Sim.Engine.spawn engine ~name (fun () ->
          r.current <- d;
          Fun.protect ~finally:(fun () -> r.current <- -1) body))
    bodies;
  r

let fingerprint r b ~sites sim =
  let open Fingerprint in
  let site h i =
    let s = Backend.site b i in
    let h = int (int (int h (Backend.u s)) (Backend.q s)) (Backend.g s) in
    snapshot int h (Mcore.Mstore.snapshot (Backend.store s))
  in
  let h = list int empty (Array.to_list r.steps) in
  let h = List.fold_left site h (List.init sites Fun.id) in
  engine (list int h (Backend.counts b)) sim
