(* Real-multicore execution backend: the Txn_core/Query_core protocol
   logic of lib/core, re-hosted on OCaml 5 domains against a real
   shared-memory three-version store.

   What is the same as the DES backend (and checked by lib/mcore's
   Conform harness on deterministic schedules):
   - the three-slot store semantics (Mstore reuses Vstore.Store);
   - §3.4 update flow: latched {read u; bump updateCount[u]} at
     subtransaction begin, catch-up moveToFuture on seeing a later
     version of an accessed item, deferred No_undo workspace applied at
     commit in first-write order, version-max commit decision over all
     participants, commit-time moveToFuture for stragglers, latched
     counter release;
   - §3.3 query flow: latched {read q; bump queryCount[q]} at the root,
     child-site version catch-up plus child counters on first visit,
     children released before the root;
   - advancement: the same three phases with the same targets
     (advance-u to newu with the g >= newu-3 inference rule, advance-q
     to newu-1, collect to newu-2), the same stalled-round re-initiation
     rule, and the counter-slot cleanup Node_state.apply runs for a
     Collect record.

   What is intentionally different: versions and counters live behind
   real spinlock latches (Latch) instead of the DES's accounting latch;
   item write exclusion is a striped try-lock with whole-transaction
   retry instead of a blocking lock table with deadlock detection (a
   transaction that cannot get a lock quickly aborts and retries, so
   there is nothing to deadlock); phase barriers are spin-waits on the
   drained counters instead of simulated acknowledgment messages.  There
   is no simulated network, no nemesis, and no WAL — this backend
   measures the memory-resident hot path in wall-clock time, and the DES
   remains the oracle for everything involving faults or durability. *)

type 'v site = {
  site_id : int;
  store : 'v Mstore.t;
  counters : Latch.t;  (* guards u/q/g and both counter tables *)
  mutable u : int;
  mutable q : int;
  mutable g : int;
  update_counts : (int, int ref) Hashtbl.t;
  query_counts : (int, int ref) Hashtbl.t;
  (* Striped per-item exclusive locks: 0 = free, otherwise the marker of
     the owning transaction.  Collisions between distinct keys on one
     stripe just cause false contention, never unsoundness. *)
  item_locks : int Atomic.t array;
  lock_mask : int;
  query_done : Sim.Event.t;  (* built once: queries carry no id here *)
}

type 'v t = {
  sites : 'v site array;
  advancement : Latch.t;  (* one round at a time, like the DES `Busy rule *)
  txn_seq : int Atomic.t;
  registry_latch : Latch.t;
  mutable registries : Sim.Metrics.t list;
  (* Fault injection for the conformance harness (the mcore analogue of
     a Config.mutant): query begin reads q and bumps the counter
     WITHOUT the latch, with a widened read-modify-write window.  The
     divergence harness must convict this twin.  Never enable outside
     tests. *)
  skip_query_latch : bool;
}

(* Store buckets and item-lock stripes per site; the stripe count is a
   power of two so a key's stripe is its hash masked. *)
let buckets = 64
let lock_stripes = 1024

(* Spins that widen the buggy twin's read-modify-write window. *)
let race_window = 2000

(* Whole-transaction retries on item-lock contention before aborting. *)
let max_retries = 64

let create ?(gc_renumber = true) ?(skip_query_latch = false) ~sites () =
  if sites < 1 then invalid_arg "Backend.create: need at least one site";
  let mk_site site_id =
    let update_counts = Hashtbl.create 8 in
    let query_counts = Hashtbl.create 8 in
    (* Start-up state (paper §3.1): data at version 0, q = 0, u = 1,
       counters for the live versions — exactly Node_state.create. *)
    Hashtbl.replace update_counts 0 (ref 0);
    Hashtbl.replace update_counts 1 (ref 0);
    Hashtbl.replace query_counts 0 (ref 0);
    Hashtbl.replace query_counts 1 (ref 0);
    {
      site_id;
      store = Mstore.create ~buckets ~bound:3 ~gc_renumber ();
      counters = Latch.create ();
      u = 1;
      q = 0;
      g = -1;
      update_counts;
      query_counts;
      item_locks = Array.init lock_stripes (fun _ -> Atomic.make 0);
      lock_mask = lock_stripes - 1;
      query_done =
        Sim.Event.Query_done { query = 0; root = site_id; kind = `Read };
    }
  in
  {
    sites = Array.init sites mk_site;
    advancement = Latch.create ();
    txn_seq = Atomic.make 1;
    registry_latch = Latch.create ();
    registries = [];
    skip_query_latch;
  }

let site t i = t.sites.(i)
let store s = s.store

(* ---- Per-domain metrics ---------------------------------------------- *)

(* Sim.Metrics registries are mutable and single-domain (hist_add is a
   racy read-modify-write).  Each domain therefore records into its own
   private registry through a [worker] handle; [metrics] merges them all
   at quiesce via the node-wise Metrics.merge_into. *)

type 'v worker = {
  b : 'v t;
  m : Sim.Metrics.t;
}

let worker t =
  let m = Sim.Metrics.create ~nodes:(Array.length t.sites) in
  Latch.with_latch t.registry_latch (fun () ->
      t.registries <- m :: t.registries);
  { b = t; m }

let backend w = w.b

let metrics t =
  let merged = Sim.Metrics.create ~nodes:(Array.length t.sites) in
  let regs = Latch.with_latch t.registry_latch (fun () -> t.registries) in
  List.iter (fun r -> Sim.Metrics.merge_into ~into:merged r) regs;
  merged

(* ---- Latched site primitives ----------------------------------------- *)

(* All callers hold [s.counters]. *)
let counter tbl version =
  match Hashtbl.find_opt tbl version with
  | Some c -> c
  | None ->
      let c = ref 0 in
      Hashtbl.replace tbl version c;
      c

let set_u_locked s version =
  if version > s.u then begin
    s.u <- version;
    ignore (counter s.update_counts version : int ref)
  end

let set_q_locked s version =
  if version > s.q then begin
    s.q <- version;
    ignore (counter s.query_counts version : int ref)
  end

(* Node_state.apply's Collect rule, with no WAL record: bump g, run the
   store's Phase-3 rules, drop the two dead counter slots. *)
let collect_garbage_locked s ~newg =
  if newg > s.g then begin
    s.g <- newg;
    let query = newg + 1 in
    Mstore.gc s.store ~collect:newg ~query;
    Hashtbl.remove s.query_counts newg;
    Hashtbl.remove s.update_counts query
  end

let catch_up_gc_locked s ~target =
  while s.g < target do
    collect_garbage_locked s ~newg:(s.g + 1)
  done

let decr_update_count_locked s ~version =
  let c = counter s.update_counts version in
  decr c;
  if !c < 0 then invalid_arg "Mcore: update counter went negative"

let decr_query_count_locked s ~version =
  let c = counter s.query_counts version in
  decr c;
  if !c < 0 then invalid_arg "Mcore: query counter went negative"

let u s = Latch.with_latch s.counters (fun () -> s.u)
let q s = Latch.with_latch s.counters (fun () -> s.q)
let g s = Latch.with_latch s.counters (fun () -> s.g)

let update_count s ~version =
  Latch.with_latch s.counters (fun () ->
      match Hashtbl.find_opt s.update_counts version with
      | None -> 0
      | Some c -> !c)

let query_count s ~version =
  Latch.with_latch s.counters (fun () ->
      match Hashtbl.find_opt s.query_counts version with
      | None -> 0
      | Some c -> !c)

(* ---- Preload ---------------------------------------------------------- *)

let load t ~site items =
  let s = t.sites.(site) in
  List.iter (fun (key, value) -> Mstore.write s.store key 0 value) items

(* ---- Update transactions (§3.4, No_undo flow) ------------------------- *)

type 'v op =
  | Read of string
  | Write of string * 'v
  | Delete of string

type 'v commit_info = {
  txn_id : int;
  final_version : int;
  reads : (string * 'v option) list;
  retries : int;
}

type 'v outcome =
  | Committed of 'v commit_info
  | Aborted of { txn_id : int; retries : int }

exception Lock_busy

type 'v sub = {
  sub_site : 'v site;
  mutable version : int;
  mutable counted : int;
  ws : (string, 'v option) Hashtbl.t;
  mutable ws_order : string list; (* reversed, first-write order *)
  mutable held : int list;        (* lock stripes held at this site *)
  mutable settled : bool;         (* counter released (commit or abort) *)
}

let stripe s key = Hashtbl.hash (key, 17) land s.lock_mask

(* Exclusive, non-blocking item lock: spin a bounded number of times,
   then give up — the caller aborts the whole transaction and retries it
   from scratch (the design has no lock waits, hence no deadlocks). *)
let lock_item sub marker key =
  let s = sub.sub_site in
  let idx = stripe s key in
  if not (List.mem idx sub.held) then begin
    let cell = s.item_locks.(idx) in
    let attempts = ref 0 in
    let rec try_take () =
      if Atomic.compare_and_set cell 0 marker then sub.held <- idx :: sub.held
      else begin
        incr attempts;
        if !attempts > 10_000 then raise Lock_busy;
        Domain.cpu_relax ();
        try_take ()
      end
    in
    try_take ()
  end

let release_locks sub =
  let s = sub.sub_site in
  List.iter (fun idx -> Atomic.set s.item_locks.(idx) 0) sub.held;
  sub.held <- []

(* Subtxn.start: latched version read + counter bump. *)
let begin_sub s =
  Latch.with_latch s.counters (fun () ->
      let v = s.u in
      incr (counter s.update_counts v);
      { sub_site = s; version = v; counted = v; ws = Hashtbl.create 8;
        ws_order = []; held = []; settled = false })

(* Subtxn.move_to under No_undo: deferred writes carry no version, so
   promoting the session's version is the whole job. *)
let move_to w ~txn sub ~newv ~at_commit =
  if newv > sub.version then begin
    sub.version <- newv;
    Sim.Metrics.record w.m
      (Sim.Event.Mtf
         { txn; site = sub.sub_site.site_id; version = newv; at_commit })
  end

(* Subtxn.catch_up: a later version of an accessed item means a
   conflicting transaction of the next version already committed;
   serialize after it by moving to the site's current update version. *)
let catch_up w ~txn sub key =
  match Mstore.max_version sub.sub_site.store key with
  | Some cur when cur > sub.version ->
      let newu = Latch.with_latch sub.sub_site.counters (fun () -> sub.sub_site.u) in
      move_to w ~txn sub ~newv:newu ~at_commit:false
  | _ -> ()

let ws_put sub key value =
  if not (Hashtbl.mem sub.ws key) then sub.ws_order <- key :: sub.ws_order;
  Hashtbl.replace sub.ws key value

let abort_sub sub =
  if not sub.settled then begin
    sub.settled <- true;
    Latch.with_latch sub.sub_site.counters (fun () ->
        decr_update_count_locked sub.sub_site ~version:sub.counted);
    release_locks sub
  end

(* One attempt at the transaction body; raises Lock_busy to signal a
   whole-transaction retry. *)
let attempt w ~root ~ops ~marker =
  let b = w.b in
  let subs : (int, 'v sub) Hashtbl.t = Hashtbl.create 4 in
  let get_sub i =
    match Hashtbl.find_opt subs i with
    | Some sub -> sub
    | None ->
        let sub = begin_sub b.sites.(i) in
        Hashtbl.replace subs i sub;
        sub
  in
  let reads = ref [] in
  let cleanup () = Hashtbl.iter (fun _ sub -> abort_sub sub) subs in
  match
    (* Txn_core registers the root's subtransaction first: it always
       participates in the commit decision, ops there or not. *)
    ignore (get_sub root : _ sub);
    List.iter
      (fun (i, op) ->
        let sub = get_sub i in
        match op with
        | Read key ->
            lock_item sub marker key;
            (match Hashtbl.find_opt sub.ws key with
            | Some own -> reads := (key, own) :: !reads
            | None ->
                catch_up w ~txn:marker sub key;
                reads :=
                  (key, Mstore.read_le sub.sub_site.store key sub.version)
                  :: !reads)
        | Write (key, value) ->
            lock_item sub marker key;
            catch_up w ~txn:marker sub key;
            ws_put sub key (Some value)
        | Delete key ->
            lock_item sub marker key;
            catch_up w ~txn:marker sub key;
            ws_put sub key None)
      ops;
    (* Prepare round: collect each participant's version (shared-lock
       release is a no-op here — reads hold the same exclusive stripes
       until commit), then the paper's version-max decision. *)
    let subs_sorted =
      Hashtbl.fold (fun _ sub acc -> sub :: acc) subs []
      |> List.sort (fun a b -> compare a.sub_site.site_id b.sub_site.site_id)
    in
    let final_version =
      List.fold_left (fun acc sub -> max acc sub.version) 0 subs_sorted
    in
    if List.exists (fun sub -> sub.version <> final_version) subs_sorted then
      Sim.Metrics.record w.m
        (Sim.Event.Version_mismatch { txn = marker; root });
    (* Commit round, in site order like Txn_core.at_sub_nodes. *)
    List.iter
      (fun sub ->
        let s = sub.sub_site in
        if sub.version < final_version then begin
          Latch.with_latch s.counters (fun () ->
              set_u_locked s final_version);
          move_to w ~txn:marker sub ~newv:final_version ~at_commit:true
        end;
        List.iter
          (fun key -> Mstore.apply s.store key final_version (Hashtbl.find sub.ws key))
          (List.rev sub.ws_order);
        sub.settled <- true;
        Latch.with_latch s.counters (fun () ->
            decr_update_count_locked s ~version:sub.counted);
        release_locks sub)
      subs_sorted;
    final_version
  with
  | final_version -> Ok (final_version, List.rev !reads)
  | exception Lock_busy ->
      cleanup ();
      Error `Busy
  | exception e ->
      cleanup ();
      raise e

let run_update w ~root ~ops =
  let b = w.b in
  let txn_id = Atomic.fetch_and_add b.txn_seq 1 in
  let marker = txn_id in
  let rec go retries =
    match attempt w ~root ~ops ~marker with
    | Ok (final_version, reads) ->
        Sim.Metrics.record w.m
          (Sim.Event.Commit { txn = txn_id; root; version = final_version });
        Committed { txn_id; final_version; reads; retries }
    | Error `Busy when retries < max_retries ->
        (* Contention backoff proportional to how often we failed. *)
        for _ = 1 to (retries + 1) * 64 do
          Domain.cpu_relax ()
        done;
        go (retries + 1)
    | Error `Busy ->
        Sim.Metrics.record w.m
          (Sim.Event.Abort { txn = txn_id; root; reason = `Deadlock });
        Aborted { txn_id; retries }
  in
  go 0

(* ---- Queries (§3.3) --------------------------------------------------- *)

type 'v query_result = {
  q_version : int;
  values : (int * string * 'v option) list;
}

(* The begin-step of §3.3 is the latched {v := q; queryCount[v]++} — the
   exact operation the paper insists needs only a latch, not a lock.
   The buggy twin (skip_query_latch) performs the bump as a naked
   read-modify-write with a widened window: on deterministic
   single-domain schedules it is indistinguishable from the real thing,
   and only the concurrent divergence harness can convict it. *)
let query_begin b s =
  if b.skip_query_latch then begin
    let v, c =
      (* Table lookup still latched (an unprotected Hashtbl would be
         structurally unsafe); only the increment itself races. *)
      Latch.with_latch s.counters (fun () -> (s.q, counter s.query_counts s.q))
    in
    let cur = !c in
    for _ = 1 to race_window do
      Domain.cpu_relax ()
    done;
    c := cur + 1;
    v
  end
  else
    Latch.with_latch s.counters (fun () ->
        let v = s.q in
        incr (counter s.query_counts v);
        v)

let run_query w ~root ~reads =
  let b = w.b in
  let rs = b.sites.(root) in
  let v = query_begin b rs in
  let visited : (int, 'v site) Hashtbl.t = Hashtbl.create 4 in
  (* Query_core.visit: first touch of a child site catches its query
     version up and registers in its counter; released in [finish]. *)
  let visit i =
    let s = b.sites.(i) in
    if i <> root && not (Hashtbl.mem visited i) then begin
      Hashtbl.replace visited i s;
      Latch.with_latch s.counters (fun () ->
          set_q_locked s v;
          incr (counter s.query_counts v))
    end;
    s
  in
  let values =
    List.map
      (fun (i, key) ->
        let s = visit i in
        (i, key, Mstore.read_le s.store key v))
      reads
  in
  (* Children release before the root, as in Query_core.finish. *)
  Hashtbl.iter
    (fun _ s ->
      Latch.with_latch s.counters (fun () ->
          decr_query_count_locked s ~version:v))
    visited;
  Latch.with_latch rs.counters (fun () ->
      decr_query_count_locked rs ~version:v);
  Sim.Metrics.record w.m rs.query_done;
  { q_version = v; values }

(* ---- Advancement (§3.2: the three phases) ----------------------------- *)

(* Spin until a latched predicate holds.  Used for the two drain
   barriers; waiters must never hold the latch while spinning or the
   transactions they wait for could not decrement. *)
let await_zero read_count =
  while read_count () <> 0 do
    Domain.cpu_relax ()
  done

let advance w ~coordinator =
  let b = w.b in
  if not (Latch.try_acquire b.advancement) then `Busy
  else
    Fun.protect
      ~finally:(fun () -> Latch.release b.advancement)
      (fun () ->
        let k = b.sites.(coordinator) in
        let cu, cq, cg =
          Latch.with_latch k.counters (fun () -> (k.u, k.q, k.g))
        in
        (* Advancement.initiate's freshness / stalled-round rules. *)
        let newu =
          if cu - cg <= 2 && cu = cq + 1 then Some (cu + 1)
          else if cu = cq + 2 || (cu = cq + 1 && cu = cg + 3) then Some cu
          else None
        in
        match newu with
        | None -> `Busy
        | Some newu ->
            let t0 = Unix.gettimeofday () in
            (* Phase 1: advance-u everywhere (with the g >= newu-3
               inference rule), then wait out the previous version's
               update transactions. *)
            Array.iter
              (fun s ->
                Latch.with_latch s.counters (fun () ->
                    catch_up_gc_locked s ~target:(newu - 3);
                    set_u_locked s newu);
                await_zero (fun () -> update_count s ~version:(newu - 1)))
              b.sites;
            let t1 = Unix.gettimeofday () in
            let newq = newu - 1 in
            Sim.Metrics.record w.m
              (Sim.Event.Phase1_done
                 { site = coordinator; newq; duration = t1 -. t0 });
            (* Phase 2: advance-q, wait out the old version's queries. *)
            Array.iter
              (fun s ->
                Latch.with_latch s.counters (fun () -> set_q_locked s newq);
                await_zero (fun () -> query_count s ~version:(newq - 1)))
              b.sites;
            let newg = newu - 2 in
            let duration = Unix.gettimeofday () -. t1 in
            Sim.Metrics.record w.m
              (Sim.Event.Phase2_done { site = coordinator; newg; duration });
            (* Phase 3: collect the version nobody can read anymore. *)
            Array.iter
              (fun s ->
                Latch.with_latch s.counters (fun () ->
                    catch_up_gc_locked s ~target:newg))
              b.sites;
            `Completed newu)

(* ---- Quiesce checks --------------------------------------------------- *)

(* With no transaction or query in flight, every site must be at rest:
   u = q + 1, g >= u - 3, no counter slot occupied, no item lock held.
   Residue here is how the divergence harness convicts the latch-skipping
   twin: its lost counter increments strand permanently nonzero (or,
   caught earlier, negative) slots. *)
let check_quiescent t =
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  Array.iter
    (fun s ->
      Latch.with_latch s.counters (fun () ->
          if s.u <> s.q + 1 then
            add "site %d: u=%d q=%d (want u = q+1)" s.site_id s.u s.q;
          if s.g < s.u - 3 then
            add "site %d: g=%d lags u=%d by more than 3" s.site_id s.g s.u;
          Hashtbl.iter
            (fun v c ->
              if !c <> 0 then
                add "site %d: updateCount[%d] = %d at quiesce" s.site_id v !c)
            s.update_counts;
          Hashtbl.iter
            (fun v c ->
              if !c <> 0 then
                add "site %d: queryCount[%d] = %d at quiesce" s.site_id v !c)
            s.query_counts);
      Array.iteri
        (fun i cell ->
          if Atomic.get cell <> 0 then
            add "site %d: item lock stripe %d still held" s.site_id i)
        s.item_locks)
    t.sites;
  List.rev !problems

let latch_acquisitions t =
  Array.fold_left
    (fun acc s ->
      acc + Latch.acquisitions s.counters + Mstore.latch_acquisitions s.store)
    0 t.sites
