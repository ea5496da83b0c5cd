(** Reproduction of the paper's Table 1 — the example execution of §5.

    Three sites (i=0, j=1, k=2) hold data items w@i, x@j, y@j, z@k.  Update
    transactions S, T, U and queries P, Q, R interleave with a version
    advancement coordinated by site k, exercising every interesting path:

    - T spans all three sites: its subtransaction at k starts in version 2
      (k had already advanced), at i and j in version 1;
    - U is a pure version-2 transaction whose committed x drags T_j to
      version 2 via a data-access moveToFuture;
    - T's version mismatch (1 at site i vs 2 at j, k) is repaired at commit
      time by the modified 2PC;
    - S starts in version 1 at j and performs a trivial moveToFuture when it
      touches y after T committed it in version 2;
    - R reads the version-0 snapshot untouched by any of this;
    - Q starts before the query-version switch (snapshot 0) and P just
      after it (snapshot 1), so two queries moments apart read different
      versions — and Phase 2 waits for Q before garbage collection runs.

    [run] replays the scenario through the real protocol stack and checks
    each of those facts, returning the full event log for rendering. *)

type event = { time : float; site : int option; text : string }

type result = {
  events : event list;
  violations : string list;  (** empty when the reproduction matches *)
}

val run : ?scheme:Wal.Scheme.kind -> unit -> result

val render : result -> string
(** The paper-style table: TIME | SITE i | SITE j | SITE k. *)

val report : unit -> unit
(** Replay, print and check the table under both recovery schemes; exits
    1 on a violation. *)
