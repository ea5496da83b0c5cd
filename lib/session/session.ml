module Cluster = Ava3.Cluster
module Cluster_state = Ava3.Cluster_state
module Config = Ava3.Config
module Txn_core = Ava3.Txn_core
module Subtxn = Ava3.Subtxn
module Query_exec = Ava3.Query_exec

type 'v t = {
  db : 'v Cluster.t;
  cs : 'v Cluster_state.t;
  session_rng : Sim.Rng.t;
  conns : int array;  (* logical connection -> pinned coordinator partition *)
  mutable next_conn : int;
}

let create ?(pool = 4) ?coordinators ~seed db =
  let cs = Cluster.state db in
  if pool < 1 then invalid_arg "Session.create: pool must be >= 1";
  let coords =
    match coordinators with
    | Some [] -> invalid_arg "Session.create: empty coordinator list"
    | Some l -> Array.of_list l
    | None -> Array.init (Cluster_state.nparts cs) Fun.id
  in
  {
    db;
    cs;
    (* Forked by name from the seed's origin: equal seeds give equal
       jitter streams no matter how many draws anything else made. *)
    session_rng = Sim.Rng.fork_named (Sim.Rng.create seed) "session";
    conns = Array.init pool (fun i -> coords.(i mod Array.length coords));
    next_conn = 0;
  }

let per_partition ~seed db =
  Array.init (Cluster.partitions db) (fun p ->
      let seed = Int64.add seed (Int64.of_int p) in
      create ~pool:1 ~coordinators:[ p ] ~seed db)

let cluster t = t.db
let rng t = t.session_rng

(* Round-robin connection checkout: each attempt (including retries after
   [Root_down]) lands on the next pooled coordinator, so a dead site is
   skipped by construction once per pool cycle. *)
let next_root t =
  let root = t.conns.(t.next_conn mod Array.length t.conns) in
  t.next_conn <- t.next_conn + 1;
  root

type 'v ctx = {
  session : 'v t;
  txn : 'v Txn_core.t;
  reads : (string * 'v option) list ref;  (* newest first *)
}

exception Rollback

let read c ~node key =
  let v =
    Txn_core.at_node c.txn node (fun sub -> Subtxn.read c.session.cs sub key)
  in
  c.reads := (key, v) :: !(c.reads);
  v

let write c ~node key value =
  Txn_core.at_node c.txn node (fun sub ->
      Subtxn.write c.session.cs sub key value)

let rmw c ~node key f =
  Txn_core.at_node c.txn node (fun sub ->
      Subtxn.read_modify_write c.session.cs sub key f)

let delete c ~node key =
  Txn_core.at_node c.txn node (fun sub -> Subtxn.delete c.session.cs sub key)

let pause _c d = Sim.Engine.sleep d

let nested c f =
  let sp = Txn_core.savepoint c.txn in
  let saved_reads = !(c.reads) in
  match f () with
  | v ->
      Txn_core.release_savepoint c.txn sp;
      Ok v
  | exception Rollback ->
      Txn_core.rollback_to c.txn sp;
      (* Reads made inside the scope are void (see Subtxn.rollback_to);
         drop them from the transaction's observation list too. *)
      c.reads := saved_reads;
      Error `Rolled_back
  | exception Subtxn.Txn_abort `Deadlock when Txn_core.running c.txn ->
      (* The denial refused our request but rolled nothing back, so
         releasing the scope's locks can break the cycle; hand the
         decision (rerun the scope, or give up the attempt) to the
         caller. *)
      Txn_core.rollback_to c.txn sp;
      c.reads := saved_reads;
      Error `Deadlock

type failure = Aborted of Txn_core.abort_reason | Root_down of int

type ('v, 'a) commit = {
  value : 'a;
  txn_id : int;
  final_version : int;
  attempts : int;
  reads : (string * 'v option) list;
  finished_at : float;
  participants : (int * float) list;
}

type ('v, 'a) outcome =
  | Committed of ('v, 'a) commit
  | Failed of {
      attempts : int;
      last : failure;
      durable : (int * float) list;
      version : int;
    }

(* Phase 2, driven to completion by the session.  Once the version
   decision is taken, aborting a participant is no longer an option: the
   decision is redriven ([Subtxn.commit] is idempotent, and refuses stale
   deliveries to a participant that rolled back) until every participant's
   commit record is durable or its node has died and lost it — a dead
   node's unforced records are gone and recovery presumes abort, so an
   uncommitted participant seen down is never redriven (its in-memory
   state does not survive the crash).  Rerunning the client function is
   safe only when NO participant committed and none can still resolve. *)
let drive_commit s t ~final_version =
  let cs = s.cs in
  let subs = Txn_core.sub_list t in
  let lost = ref [] in
  let last = ref (`Rpc_timeout (Txn_core.root t)) in
  let participants = ref [] in
  let note_participant sub =
    let n = Ava3.Node_state.id (Subtxn.node sub) in
    if not (List.mem_assoc n !participants) then
      participants := (n, Subtxn.committed_at sub) :: !participants
  in
  let pending () =
    List.filter
      (fun sub -> (not (Subtxn.committed sub)) && not (List.memq sub !lost))
      subs
  in
  let observe sub =
    if not (Ava3.Node_state.alive (Subtxn.node sub)) then begin
      lost := sub :: !lost;
      last := `Node_down (Ava3.Node_state.id (Subtxn.node sub))
    end
  in
  let max_rounds = 40 in
  let rec go round =
    List.iter observe (pending ());
    match pending () with
    | [] -> ()
    | _ when round >= max_rounds -> ()
    | ps ->
        List.iter
          (fun sub ->
            if (not (Subtxn.committed sub)) && not (List.memq sub !lost)
            then begin
              let n = Ava3.Node_state.id (Subtxn.node sub) in
              match
                Txn_core.at_node t n (fun sub ->
                    Subtxn.commit cs sub ~final_version)
              with
              | () -> if Subtxn.committed sub then note_participant sub
              | exception Net.Network.Rpc_timeout m -> last := `Rpc_timeout m
              | exception Net.Network.Node_down m ->
                  last := `Node_down m;
                  if m = n then lost := sub :: !lost
              | exception Subtxn.Txn_abort r -> (
                  last := r;
                  match r with
                  | `Node_down m when m = n -> lost := sub :: !lost
                  | _ -> ())
            end)
          ps;
        if pending () <> [] then begin
          Sim.Engine.sleep 2.0;
          go (round + 1)
        end
  in
  go 0;
  List.iter note_participant (List.filter Subtxn.committed subs);
  (* An unresolved participant — decision in, force pending, node alive —
     can still become durable on its own, so it is never grounds to rerun. *)
  let unresolved sub =
    Subtxn.commit_submitted sub
    && (not (Subtxn.committed sub))
    && Ava3.Node_state.alive (Subtxn.node sub)
  in
  if List.for_all Subtxn.committed subs then `All (List.rev !participants)
  else if List.exists Subtxn.committed subs || List.exists unresolved subs
  then `Partial (List.rev !participants, !last)
  else `None !last

(* One attempt: the Update_exec.run lifecycle driven interactively by the
   client function, except that the commit fan-out runs outside
   [Txn_core.protect] — after the decision, failures are redriven rather
   than turned into aborts.  [`Failed (failure, durable, version,
   retryable)] carries the retry verdict so [txn] stays policy-only. *)
let attempt s ~root f =
  match Txn_core.create s.cs ~root with
  | None -> `Failed (Root_down root, [], 0, true)
  | Some t -> (
      let c = { session = s; txn = t; reads = ref [] } in
      let value = ref None in
      let final_version = ref 0 in
      let client_gave_up = ref false in
      let out =
        Txn_core.protect t (fun () ->
            ignore (Txn_core.sub t root : _ Subtxn.t);
            (match f c with
            | v -> value := Some v
            | exception Rollback ->
                (* Rollback outside any scope: the client abandoned the
                   transaction itself.  Abort (recorded deadlock-class)
                   and never retry — rerunning would just abandon again. *)
                client_gave_up := true;
                raise (Subtxn.Txn_abort `Deadlock));
            let prepared =
              Txn_core.at_sub_nodes t (fun sub -> Subtxn.prepare s.cs sub)
            in
            final_version := Txn_core.decide_version t prepared;
            Txn_core.Committed ())
      in
      match out with
      | Txn_core.Root_down _ -> assert false (* create already checked *)
      | Txn_core.Aborted { reason; _ } ->
          (* Pre-decision failure: [abort_all] rolled every participant
             back and stale commit messages cannot exist yet, so a rerun
             is clean. *)
          `Failed (Aborted reason, [], 0, not !client_gave_up)
      | Txn_core.Committed () -> (
          let fv = !final_version in
          match drive_commit s t ~final_version:fv with
          | `All participants ->
              Txn_core.finish_commit t ~final_version:fv;
              `Committed
                ( Option.get !value,
                  Txn_core.txn_id t,
                  fv,
                  List.rev !(c.reads),
                  Cluster_state.now s.cs,
                  participants )
          | `Partial (durable, reason) ->
              (* Some participants are past the point of no return while
                 others died with their records unforced — the model's
                 acknowledged atomicity edge (a node dying mid-commit
                 round).  Never retryable: a rerun would double-apply the
                 durable part.  [durable] tells the caller exactly which
                 homes hold the writes. *)
              ignore (Txn_core.abort_all t reason : unit Txn_core.outcome);
              `Failed (Aborted reason, durable, fv, false)
          | `None reason ->
              (* No participant committed and none still can: stale
                 deliveries are refused at the participant, so a rerun
                 cannot double-apply anything. *)
              ignore (Txn_core.abort_all t reason : unit Txn_core.outcome);
              `Failed (Aborted reason, [], fv, true)))

let backoff_of s ~config k =
  let jitter = 0.5 +. Sim.Rng.float s.session_rng 1.0 in
  config.Config.retry_backoff_base *. Float.pow 2.0 (float_of_int k) *. jitter

(* Generic over the failure payload ['f]: [txn] threads the durable
   participant list through it, queries just use {!failure}. *)
let retry_loop s (run : root:int -> [ `Ok of 'a | `Failed of 'f * bool ]) =
  let config = Cluster.config s.db in
  let budget = config.Config.max_retries in
  let rec go k =
    let root = next_root s in
    match run ~root with
    | `Ok v -> `Ok (v, k + 1)
    | `Failed (last, retryable) ->
        if retryable && k < budget then begin
          let backoff = backoff_of s ~config k in
          Sim.Metrics.record_session_retry s.cs.Cluster_state.metrics
            ~node:root ~backoff;
          if backoff > 0.0 then Sim.Engine.sleep backoff;
          go (k + 1)
        end
        else `Failed (last, k + 1)
  in
  go 0

let txn s f =
  match
    retry_loop s (fun ~root ->
        match attempt s ~root f with
        | `Committed c -> `Ok c
        | `Failed (last, durable, version, retryable) ->
            `Failed ((last, durable, version), retryable))
  with
  | `Ok ((value, txn_id, final_version, reads, finished_at, participants), attempts)
    ->
      Committed
        { value; txn_id; final_version; attempts; reads; finished_at; participants }
  | `Failed ((last, durable, version), attempts) ->
      Failed { attempts; last; durable; version }

(* Read-only queries hold no locks and clean up their counters on the way
   out, so every failure is retryable. *)
let query_retry s run =
  match
    retry_loop s (fun ~root ->
        match run ~root with
        | v -> `Ok v
        | exception Net.Network.Node_down n ->
            `Failed (Aborted (`Node_down n), true)
        | exception Net.Network.Rpc_timeout n ->
            `Failed (Aborted (`Rpc_timeout n), true))
  with
  | `Ok (v, _) -> Ok v
  | `Failed (last, _) -> Error last

let query s ~reads =
  query_retry s (fun ~root -> Cluster.run_query s.db ~root ~reads)

let select s ~plan ~ranges =
  query_retry s (fun ~root -> Cluster.run_select s.db ~root ~plan ~ranges)

let join s ~plan ~build ~probe =
  query_retry s (fun ~root -> Cluster.run_join s.db ~root ~plan ~build ~probe)

module Dsl = struct
  (* The combinator names below shadow the session entry points, so keep
     handles to the real ones for the interpreter. *)
  let session_txn = txn
  let session_query = query
  let session_select = select
  let session_join = join
  let session_pause = pause

  type 'v step =
    | S_read of int * string
    | S_write of int * string * 'v
    | S_rmw of int * string * ('v option -> 'v)
    | S_delete of int * string
    | S_pause of float
    | S_scope of 'v step list
    | S_expect_abort of 'v step list

  let sread ~node key = S_read (node, key)
  let swrite ~node key v = S_write (node, key, v)
  let srmw ~node key f = S_rmw (node, key, f)
  let sdelete ~node key = S_delete (node, key)
  let spause d = S_pause d
  let scope steps = S_scope steps
  let expect_abort steps = S_expect_abort steps

  type 'v prog =
    | P_txn of 'v step list
    | P_query of (int * string) list
    | P_select of Query_exec.select_plan * (int * string * string) list
    | P_join of
        Query_exec.select_plan
        * (int list * string * string)
        * (int list * string * string)
    | P_seq of 'v prog list
    | P_loop of int * 'v prog
    | P_choice of string * 'v prog list
    | P_pause of float

  let txn steps = P_txn steps
  let query reads = P_query reads
  let select ~plan ~ranges = P_select (plan, ranges)
  let join ~plan ~build ~probe = P_join (plan, build, probe)
  let seq progs = P_seq progs
  let loop n prog = P_loop (n, prog)
  let choice ~label progs = P_choice (label, progs)
  let pause d = P_pause d

  type summary = {
    committed : int;
    failed : int;
    attempts : int;
    queries : int;
    query_failures : int;
    rolled_back : int;
  }

  let empty_summary =
    {
      committed = 0;
      failed = 0;
      attempts = 0;
      queries = 0;
      query_failures = 0;
      rolled_back = 0;
    }

  let add_summary a b =
    {
      committed = a.committed + b.committed;
      failed = a.failed + b.failed;
      attempts = a.attempts + b.attempts;
      queries = a.queries + b.queries;
      query_failures = a.query_failures + b.query_failures;
      rolled_back = a.rolled_back + b.rolled_back;
    }

  let seeded_choose rng ~label n =
    ignore label;
    Sim.Rng.int rng n

  let explorer_choose s ~label n =
    Sim.Engine.branch s.cs.Cluster_state.engine ~label n

  (* [rolled] counts expect_abort rollbacks across every attempt of the
     enclosing transaction, retries included: it measures work done, not
     transactions finished. *)
  let rec exec_step s c rolled = function
    | S_read (node, key) -> ignore (read c ~node key : _ option)
    | S_write (node, key, v) -> write c ~node key v
    | S_rmw (node, key, f) -> rmw c ~node key f
    | S_delete (node, key) -> delete c ~node key
    | S_pause d -> session_pause c d
    | S_scope steps -> (
        match
          nested c (fun () -> List.iter (exec_step s c rolled) steps)
        with
        | Ok () -> ()
        | Error `Rolled_back -> () (* unreachable: no Rollback raised *)
        | Error `Deadlock ->
            (* The scope was rolled back, but the DSL's policy is to give
               the whole attempt back to the session retry loop rather
               than rerun the scope inside a half-done transaction. *)
            raise (Subtxn.Txn_abort `Deadlock))
    | S_expect_abort steps -> (
        match
          nested c (fun () ->
              List.iter (exec_step s c rolled) steps;
              raise Rollback)
        with
        | Ok _ -> assert false (* the scope always raises *)
        | Error `Rolled_back -> incr rolled
        | Error `Deadlock -> raise (Subtxn.Txn_abort `Deadlock))

  let run ?choose s prog =
    let choose =
      match choose with Some f -> f | None -> seeded_choose s.session_rng
    in
    let rec go sum = function
      | P_txn steps ->
          let rolled = ref 0 in
          let sum =
            match
              session_txn s (fun c -> List.iter (exec_step s c rolled) steps)
            with
            | Committed { attempts; _ } ->
                {
                  sum with
                  committed = sum.committed + 1;
                  attempts = sum.attempts + attempts;
                }
            | Failed { attempts; _ } ->
                {
                  sum with
                  failed = sum.failed + 1;
                  attempts = sum.attempts + attempts;
                }
          in
          { sum with rolled_back = sum.rolled_back + !rolled }
      | P_query reads -> (
          match session_query s ~reads with
          | Ok _ -> { sum with queries = sum.queries + 1 }
          | Error _ -> { sum with query_failures = sum.query_failures + 1 })
      | P_select (plan, ranges) -> (
          match session_select s ~plan ~ranges with
          | Ok _ -> { sum with queries = sum.queries + 1 }
          | Error _ -> { sum with query_failures = sum.query_failures + 1 })
      | P_join (plan, build, probe) -> (
          match session_join s ~plan ~build ~probe with
          | Ok _ -> { sum with queries = sum.queries + 1 }
          | Error _ -> { sum with query_failures = sum.query_failures + 1 })
      | P_seq progs -> List.fold_left go sum progs
      | P_loop (n, prog) ->
          let acc = ref sum in
          for _ = 1 to n do
            acc := go !acc prog
          done;
          !acc
      | P_choice (label, progs) ->
          let n = List.length progs in
          if n = 0 then sum else go sum (List.nth progs (choose ~label n))
      | P_pause d ->
          Sim.Engine.sleep d;
          sum
    in
    go empty_summary prog

  let gen_key ~node i = Printf.sprintf "k%d_%d" node i

  let gen ~rng ~nodes ~keys_per_node ~txns =
    let key () =
      let node = Sim.Rng.int rng nodes in
      (node, gen_key ~node (Sim.Rng.int rng keys_per_node))
    in
    let incr_f = function None -> 1 | Some v -> v + 1 in
    let plain_step () =
      let node, k = key () in
      let roll = Sim.Rng.int rng 100 in
      if roll < 40 then srmw ~node k incr_f
      else if roll < 65 then sread ~node k
      else if roll < 85 then swrite ~node k (Sim.Rng.int rng 1000)
      else if roll < 95 then sdelete ~node k
      else spause (Sim.Rng.float rng 0.5)
    in
    let step () =
      let roll = Sim.Rng.int rng 100 in
      if roll < 25 then
        scope (List.init (1 + Sim.Rng.int rng 3) (fun _ -> plain_step ()))
      else if roll < 37 then
        expect_abort
          (List.init (1 + Sim.Rng.int rng 3) (fun _ -> plain_step ()))
      else plain_step ()
    in
    let one_txn () = txn (List.init (2 + Sim.Rng.int rng 5) (fun _ -> step ())) in
    let progs =
      List.concat
        (List.init txns (fun i ->
             let t = one_txn () in
             let extras =
               if i mod 5 = 4 then
                 let node, k = key () in
                 [ query [ (node, k) ] ]
               else if Sim.Rng.chance rng 0.15 then
                 [ pause (Sim.Rng.float rng 2.0) ]
               else []
             in
             t :: extras))
    in
    seq progs
end
