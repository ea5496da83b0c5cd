(** Version-advancement protocol messages (paper §3.2).

    These are the only messages AVA3 itself adds to the system; user
    transactions travel over the R*-style RPC path instead.

    A coordinator sends the phase messages to its own site plain and to
    every other site wrapped in [Relay] frames down a coordinator-rooted
    relay tree ([Config.tree_arity]; the default [0] is a depth-one tree,
    every site a direct child).  Acknowledgments travel back up
    aggregated in [Relay_ack] frames; only the coordinator's own share is
    acknowledged plain.

    With replication ([Config.replicas > 0]) the [Ship] / [Ship_ack] pair
    carries asynchronous WAL shipping from each partition's primary to its
    backups; the type is parameterized by the stored value ['v] because
    shipped batches embed WAL records. *)

type 'v t =
  | Advance_u of { newu : int }
      (** Phase 1: switch new update transactions to version [newu]. *)
  | Ack_advance_u of { newu : int }
      (** Participant confirms: its update version is at least [newu] and
          all its subtransactions that started on [newu - 1] finished. *)
  | Advance_q of { newq : int }
      (** Phase 2: switch new queries to version [newq]. *)
  | Ack_advance_q of { newq : int }
  | Garbage_collect of { newg : int }  (** Phase 3. *)
  | Relay of { sites : int array; nparts : int; pos : int; inner : 'v t }
      (** Tree frame for [inner], addressed to the site at [sites.(pos)].
          [sites] lays the whole round out as an implicit tree rooted at
          the coordinator [sites.(0)]: the children of position [p] are
          positions [arity*p + 1 .. arity*p + arity].  The first [nparts]
          positions are barrier participants; later positions receive
          messages fire-and-forget (version-counter convergence) and never
          acknowledge.  Since positions only grow downward, a
          non-participant's subtree is entirely non-participant. *)
  | Relay_ack of { root : int; inner : 'v t }
      (** Aggregated upward acknowledgment: the sender's entire subtree has
          locally completed (and made durable) the phase that [inner]
          acknowledges.  [root] names the coordinator whose round this is —
          two coordinators can race the same version number with different
          trees, and their acknowledgment flows must not mix. *)
  | Ship of {
      part : int;
      epoch : int;
      from_ : int;
      records : 'v Wal.Record.t list;
    }
      (** Log-ship batch from partition [part]'s primary: [records] are the
          primary's WAL records with 0-based indexes [from_ ..], already
          durable at the primary.  [epoch] counts the primary log's
          truncation generations (a quiescent checkpoint starts a new
          epoch); a backup adopts a higher epoch only from a [from_ = 0]
          batch, discarding its own log first — full resync.  The epoch
          makes lost or reordered batches across a truncation harmless:
          indexes from different generations can never be confused. *)
  | Ship_ack of { part : int; epoch : int; upto : int }
      (** Backup's cumulative acknowledgment: within [epoch], it has
          appended {e and applied} every shipped record below [upto].
          Carries the backup's whole progress, not one batch's, so lost or
          reordered acks are harmless; acks from a stale epoch are
          ignored. *)

val payload : 'v t -> 'v t
(** The protocol message inside any nesting of relay frames: what round
    comparisons (abandonment, staleness checks) care about.  [Ship] and
    [Ship_ack] frames pass through unchanged (they are not advancement
    messages). *)
