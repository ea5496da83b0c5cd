(** R*-style tree execution of update transactions (paper §2).

    This is the paper's actual transaction model: a transaction is submitted
    to one server (the root), executes a root subtransaction, and sends
    children subtransactions to other nodes, which may send their own
    children.  Children run {e concurrently}; when a subtransaction's work
    and all of its descendants are done, it sends [prepared(V(T_i))] to its
    parent — so the transaction's global version is computed bottom-up as
    the maximum over the tree, and the [commit(V(T))] decision flows back
    down, triggering commit-time moveToFutures at participants that ran
    behind.

    Plans must visit each partition at most once (the paper's [T_i] is
    {e the} subtransaction of [T] at partition [i]).  [run] resolves every
    plan node to its partition's current primary site before it starts, so
    a plan follows a failover, and rejects a plan that reaches one site
    twice.

    The flat, root-driven executor ({!Update_exec}) remains the convenient
    API for workloads; this module exists to execute the paper's model
    literally, with genuine intra-transaction parallelism. *)

type 'v step =
  | Read of string
  | Write of string * 'v
  | Read_modify_write of string * ('v option -> 'v)
  | Delete of string
  | Pause of float

type 'v plan = {
  at : int;  (** partition this subtransaction runs on *)
  work : 'v step list;  (** executed at [at], in order *)
  children : 'v plan list;  (** dispatched concurrently after [work] *)
}

type 'v commit_info = {
  txn_id : int;
  final_version : int;
  reads : (int * string * 'v option) list;
      (** results of [Read] steps as (node, key, value) *)
  started_at : float;
  finished_at : float;
}

(** {!Txn_core.outcome} re-exported so the constructors live here too. *)
type 'info txn_outcome = 'info Txn_core.outcome =
  | Committed of 'info
  | Aborted of { txn_id : int; reason : Subtxn.abort_reason }
  | Root_down of { root : int }
      (** The root node was down at submission: no transaction id was
          allocated, nothing ran anywhere (a rejection, not an abort). *)

type 'v outcome = 'v commit_info txn_outcome

val run : 'v Cluster_state.t -> plan:'v plan -> 'v outcome
(** Execute the tree (inside a simulation process).  Raises
    [Invalid_argument] if the plan visits a partition twice. *)
