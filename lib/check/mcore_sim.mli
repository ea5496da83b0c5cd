(** The checked runtime of the multicore backend: {!Mcore.Backend.Make}
    instantiated so the schedule explorer interleaves its atomic steps.

    Each logical domain is a named {!Sim.Engine} process.  Every
    [get], [set], [compare_and_set] and [fetch_and_add] a domain performs
    is one checked step: the process yields first, so the step runs when
    the explorer picks that domain at a ready-queue tie, and the steps of
    two domains interleave in every order the explorer enumerates.
    [relax] parks the domain until the next checked write by any domain
    (it returns at once if one happened since the domain last relaxed),
    so a drain or lock spin adds no schedules and cannot loop at one
    virtual instant; a spin nothing will ever end leaves the process
    suspended, which the scenario's quiescence oracle reports.  Store
    operations ({!Mcore.Mstore}) are not steps: each runs atomically
    between two of them.

    Backend calls made outside a domain process (setup, oracles,
    fingerprints) read and write the cells directly, without a step. *)

module Backend : Mcore.Backend.S

type t
(** One run's logical domains. *)

val spawn : Sim.Engine.t -> (string * (unit -> unit)) list -> t
(** Start one process per [(name, body)] at the current instant.  Only
    these bodies may call {!Backend} operations; one run's domains per
    OCaml domain at a time (a later [spawn] ends the earlier run's
    checked steps). *)

val fingerprint :
  t -> int Backend.t -> sites:int -> Sim.Engine.t -> Fingerprint.t
(** Each of the [sites] sites' u, q, g and store contents, every counter
    slot of every shard, each domain's count of checked steps and the
    engine component.  The step counts keep apart states that differ
    only in one domain's private progress. *)
