(** Update transaction execution (paper §3.4).

    Update transactions use strict two-phase locking per node and the
    R*-style tree commit protocol across nodes, with version numbers
    piggybacked on the [prepared] and [commit] messages.  A subtransaction
    that encounters a data item from a later version moves itself forward
    with moveToFuture at data-access time; a version mismatch among
    subtransactions is repaired the same way at commit time. *)

type 'v op =
  | Read of { node : int; key : string }
  | Write of { node : int; key : string; value : 'v }
  | Read_modify_write of { node : int; key : string; f : 'v option -> 'v }
      (** Read under an exclusive lock, then write [f value]. *)
  | Delete of { node : int; key : string }
  | Begin_at of int
      (** Dispatch a subtransaction to the node without touching data — it
          looks up the node's update version and registers in its counter
          (the R* model sends children eagerly; Table 1's T_j arrives at
          node j well before its first data access there). *)
  | Pause of float  (** Local computation time at the root. *)

type abort_reason = Subtxn.abort_reason

type 'v commit_info = {
  txn_id : int;
  final_version : int;  (** the global version [V(T)] it committed in *)
  reads : (string * 'v option) list;  (** results of [Read] ops in order *)
  started_at : float;
  finished_at : float;
  participants : (int * float) list;
      (** (node, local commit time) per subtransaction — the instant locks
          were released there, which is what orders same-version conflicting
          transactions (used by the serializability checker) *)
}

(** {!Txn_core.outcome} re-exported so the constructors live here too. *)
type 'info txn_outcome = 'info Txn_core.outcome =
  | Committed of 'info
  | Aborted of { txn_id : int; reason : abort_reason }
  | Root_down of { root : int }
      (** The root node was down when the transaction was submitted: no
          transaction id was allocated, nothing ran anywhere.  Counted
          as a rejection, not an abort. *)

type 'v outcome = 'v commit_info txn_outcome

val run : 'v Cluster_state.t -> root:int -> ops:'v op list -> 'v outcome
(** Execute the operation list as one distributed transaction rooted at
    [root].  Must be called inside a simulation process.  On abort, all
    subtransactions are rolled back, their locks released and counters
    decremented; the caller decides whether to retry. *)
