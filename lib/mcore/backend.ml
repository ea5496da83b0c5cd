(* Real-multicore execution backend for the AVA3 protocol.

   Its own implementation of the paper's flows, on shared memory:
   - §3.4 updates: {read u; bump updateCount[u]} at subtransaction
     begin, catch-up moveToFuture on seeing a later version of an
     accessed item, a deferred No_undo workspace applied at commit in
     first-write order, the version-max commit decision, commit-time
     moveToFuture for stragglers, counter release;
   - §3.3 queries: {read q; bump queryCount[q]} at the root, child-site
     version catch-up plus child counters on first visit, children
     released before the root;
   - §3.2 advancement: the three phases with the DES's targets
     (advance-u to newu with the g >= newu-3 inference rule, advance-q to
     newu-1, collect newu-2) and its freshness and stalled-round
     initiation rules.

   This is a second implementation of the logic in lib/core's Txn_core,
   Query_core and Advancement, not a call into it.  What the two share
   is the store: every Mstore bucket is a Vstore.Store, the DES's own
   three-slot store.  Conform runs one seeded workload through both,
   one event at a time, and diffs every decision, read and final store.

   The counter protocol is written once, in [Make], over the atomic
   operations of a [SYNC] module, and two runtimes run it: real domains
   through OCaml 5's [Atomic] (the [include] at the bottom of this file),
   and the schedule explorer through lib/check's Mcore_sim, where every
   atomic step is a scheduling point of a simulated process.  The
   explorer therefore checks the interleavings of this very code.

   Not modelled (the DES remains the oracle for all of it): the
   network, RPC timeouts, crashes, the WAL and recovery, §8's eager
   hand-off and the §10 variants (PROTOCOL.md says why).  Item write
   exclusion is a striped try-lock with whole-transaction retry, so
   there are no lock waits and no deadlocks; phase barriers spin on the
   drained counters instead of exchanging acknowledgments.

   Concurrency contract: a backend may be shared freely across domains.
   Every transaction, query and advancement goes through a [worker],
   which carries the domain's private Sim.Metrics registry and counter
   shard (neither is safe to share); create one worker per domain and
   merge with [metrics] at quiesce. *)

(** {1 Types shared by every runtime} *)

type 'v op =
  | Read of string
  | Write of string * 'v
  | Delete of string

type 'v commit_info = {
  txn_id : int;
  final_version : int;
  reads : (string * 'v option) list;  (** results of [Read] ops, in op order *)
  retries : int;
}

type 'v outcome =
  | Committed of 'v commit_info
  | Aborted of { txn_id : int; retries : int }
      (** item-lock contention persisted past the retry budget *)

type 'v query_result = {
  q_version : int;
  values : (int * string * 'v option) list;
}

(** The shared-memory operations the backend is written against: a cell
    with sequentially consistent get, set, compare-and-set (physical
    equality, as [Atomic]) and fetch-and-add, and [relax n], called on
    the [n]th failed check (from 0) of a loop waiting for another
    domain to write a cell. *)
module type SYNC = sig
  type 'a t

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val compare_and_set : 'a t -> 'a -> 'a -> bool
  val fetch_and_add : int t -> int -> int
  val relax : int -> unit
end

module type S = sig
  type 'v t
  type 'v site

  val create :
    ?gc_renumber:bool -> ?skip_pin_recheck:bool -> sites:int -> unit -> 'v t
  (** A backend of [sites] sites, each in the paper's §3.1 start state
      (data loadable at version 0, q = 0, u = 1, g = -1) with a
      [bound = 3] store of 64 latch buckets and 1024 item-lock stripes.

      [skip_pin_recheck] is fault injection (the mcore analogue of a
      [Config.mutant]): the query begin step reads q and bumps its slot
      but never re-reads q, so an advancement round that runs in between
      can drain and collect the version it pins.  Correct on every
      sequential schedule; the explorer's
      [mcore-skip-pin-recheck-buggy] scenario convicts it.  Never enable
      outside tests. *)

  val site : 'v t -> int -> 'v site
  val store : 'v site -> 'v Mstore.t
  val u : _ site -> int
  val q : _ site -> int
  val g : _ site -> int

  val load : 'v t -> site:int -> (string * 'v) list -> unit
  (** Preload items at version 0.  Call before any concurrent work. *)

  type 'v worker

  val worker : 'v t -> 'v worker
  (** A handle for one domain: the shared backend, a private metrics
      registry and a private shard of every site's counters.  Registered
      with the backend for good; create one per domain, not one per
      operation, and never share one across domains. *)

  val backend : 'v worker -> 'v t

  val metrics : _ t -> Sim.Metrics.t
  (** All worker registries merged node-wise into a fresh registry.  Only
      meaningful at quiesce.  Workers record the DES's {!Sim.Event}
      constructors; queries carry no id here, so every
      {!Sim.Event.Query_done} names query [0]. *)

  val run_update :
    'v worker -> root:int -> ops:(int * 'v op) list -> 'v outcome
  (** One update transaction: [ops] are (site, op) pairs in program
      order; the root's subtransaction is registered first and takes
      part in the version decision even without ops.  Item-lock
      contention retries the whole transaction up to 64 times. *)

  val run_query :
    'v worker -> root:int -> reads:(int * string) list -> 'v query_result
  (** One read-only query: pins the root's query version, visits child
      sites with version catch-up and child counters, releases children
      before the root.  Always-on guard: if the root has collected the
      pinned version by the time the reads are done, the query releases
      its counts and raises [Invalid_argument "query version collected
      under its pin"], which a valid pin makes impossible. *)

  val advance : _ worker -> coordinator:int -> [ `Busy | `Completed of int ]
  (** One full advancement round, run synchronously (all three phases,
      with the DES's freshness and stalled-round initiation rules).
      [`Busy] if another round is in flight or the coordinator's state
      says no round is needed.  The phase barriers wait for the drained
      counters, so callers must not hold anything a transaction needs to
      finish. *)

  val check_quiescent : _ t -> string list
  (** With nothing in flight: u = q+1, g >= u-3, every counter slot zero
      summed over the workers' shards, and no item lock held, per site.
      Returns the violations (empty = clean), naming the site and slot of
      any leftover count. *)

  val counts : _ t -> int list
  (** Every counter slot of every shard, update slots then query slots,
      workers newest first: the counter state a schedule explorer's
      fingerprint digests. *)

  val latch_acquisitions : _ t -> int
  (** Successful latch acquisitions on the store's buckets (the counter
      protocol takes none): the "latches, not locks" statistic. *)
end

module Make (Sync : SYNC) : S = struct
  type 'v site = {
    site_id : int;
    store : 'v Mstore.t;
    (* u and q only grow: commit-time stragglers, a query's child visit
       and advancement all raise them with a CAS-max.  Only the advancer
       writes g, and [advance] runs one round at a time. *)
    u : int Sync.t;
    q : int Sync.t;
    g : int Sync.t;
    (* Striped per-item exclusive locks: 0 = free, otherwise the marker
       of the owning transaction.  Distinct keys sharing a stripe only
       cause false contention, never unsoundness. *)
    item_locks : int Sync.t array;
    lock_mask : int;
    query_done : Sim.Event.t;  (* built once: queries carry no id here *)
  }

  type 'v t = {
    sites : 'v site array;
    advancing : bool Sync.t;  (* one round at a time, like the DES `Busy rule *)
    txn_seq : int Sync.t;
    (* Every worker ever created, pushed before the worker's first pin;
       the drain barriers read it after raising u or q. *)
    workers : 'v worker list Sync.t;
    skip_pin_recheck : bool;
  }

  (* One domain's handle.  Slot [site * ring + v land (ring - 1)] of [uc]
     (update counts) or [qc] (query counts) holds this domain's
     transactions or queries counted at version [v] of that site.  Only
     the owning domain writes a shard, so each slot stays >= 0 and a
     drain may sum slots read one at a time. *)
  and 'v worker = {
    b : 'v t;
    m : Sim.Metrics.t;
    uc : int Sync.t array;
    qc : int Sync.t array;
  }

  (* Counter slots per site and shard.  Version v uses slot v land 3, so
     a slot is reused by v + 4.  A count is only ever taken at a version
     in (g, u] of its site: an update pins u, a query pins q = u - 1 (or
     u - 2 between Phases 1 and 2), and a child visit counts the root's
     pin, which the root's own count keeps above every site's g.  With
     g >= u - 3 that window holds at most three versions.  Before u can
     reach v + 4, g must reach v + 1: Phase 3 collects v only after
     Phases 1 and 2 drained v's slots at every site, and no pin of v
     validates after those drains raised u and q past v.  So a slot is
     drained before it is reused, and what a later drain finds in it is
     either a live count of its own version or a pin about to fail its
     recheck.  (Each kind of count in fact spans at most two versions per
     site, so four slots are a margin, not a need.) *)
  let ring = 4

  let slot s v = (s.site_id * ring) + (v land (ring - 1))

  (* Store buckets and item-lock stripes per site; the stripe count is a
     power of two so a key's stripe is its hash masked. *)
  let buckets = 64
  let lock_stripes = 1024

  (* Whole-transaction retries on item-lock contention before aborting. *)
  let max_retries = 64

  let create ?(gc_renumber = true) ?(skip_pin_recheck = false) ~sites () =
    if sites < 1 then invalid_arg "Backend.create: need at least one site";
    (* Start-up state (paper §3.1): data at version 0, q = 0, u = 1,
       g = -1, exactly Node_state.create. *)
    let mk_site site_id =
      {
        site_id;
        store = Mstore.create ~buckets ~bound:3 ~gc_renumber ();
        u = Sync.make 1;
        q = Sync.make 0;
        g = Sync.make (-1);
        item_locks = Array.init lock_stripes (fun _ -> Sync.make 0);
        lock_mask = lock_stripes - 1;
        query_done =
          Sim.Event.Query_done { query = 0; root = site_id; kind = `Read };
      }
    in
    {
      sites = Array.init sites mk_site;
      advancing = Sync.make false;
      txn_seq = Sync.make 1;
      workers = Sync.make [];
      skip_pin_recheck;
    }

  let site t i = t.sites.(i)
  let store s = s.store
  let u s = Sync.get s.u
  let q s = Sync.get s.q
  let g s = Sync.get s.g

  let incr c = ignore (Sync.fetch_and_add c 1 : int)

  (* ---- Per-domain workers -------------------------------------------- *)

  (* Sim.Metrics registries are mutable and single-domain, and a counter
     shard must have one writer, so each domain works through its own
     [worker]; [metrics] merges the registries at quiesce. *)
  let worker t =
    let n = Array.length t.sites * ring in
    let w =
      {
        b = t;
        m = Sim.Metrics.create ~nodes:(Array.length t.sites);
        uc = Array.init n (fun _ -> Sync.make 0);
        qc = Array.init n (fun _ -> Sync.make 0);
      }
    in
    let rec register () =
      let ws = Sync.get t.workers in
      if not (Sync.compare_and_set t.workers ws (w :: ws)) then register ()
    in
    register ();
    w

  let backend w = w.b

  let metrics t =
    let merged = Sim.Metrics.create ~nodes:(Array.length t.sites) in
    List.iter
      (fun w -> Sim.Metrics.merge_into ~into:merged w.m)
      (Sync.get t.workers);
    merged

  (* ---- Site primitives ----------------------------------------------- *)

  let rec raise_to a v =
    let cur = Sync.get a in
    if v > cur && not (Sync.compare_and_set a cur v) then raise_to a v

  (* The §3.3/§3.4 begin step {v := x; count[v]++} without a latch: bump
     this domain's slot for the version read, then re-read it.  The cells
     are sequentially consistent, and a drain raises x before it reads
     the slots, so either this re-read sees the drain's new x (drop the
     bump and pin that instead) or the drain sees the bump and waits for
     its release.  A worker is registered before its first pin, so a
     drain that reads the worker list after raising x includes it. *)
  let rec pin counts x s =
    let v = Sync.get x in
    let c = counts.(slot s v) in
    incr c;
    if Sync.get x = v then v
    else begin
      ignore (Sync.fetch_and_add c (-1) : int);
      pin counts x s
    end

  let unpin counts s v =
    if Sync.fetch_and_add counts.(slot s v) (-1) <= 0 then
      invalid_arg "Mcore: counter went negative"

  (* Node_state.apply's Collect rule, with no WAL record: bump g, run the
     store's Phase-3 rules.  Only the advancer calls this. *)
  let collect_garbage s ~newg =
    Sync.set s.g newg;
    Mstore.gc s.store ~collect:newg ~query:(newg + 1)

  let catch_up_gc s ~target =
    for newg = Sync.get s.g + 1 to target do
      collect_garbage s ~newg
    done

  let load t ~site items =
    let s = t.sites.(site) in
    List.iter (fun (key, value) -> Mstore.write s.store key 0 value) items

  (* ---- Update transactions (§3.4, No_undo flow) ---------------------- *)

  exception Lock_busy

  type 'v sub = {
    sub_site : 'v site;
    mutable version : int;
    counted : int;  (* the version its count was taken at *)
    ws : (string, 'v option) Hashtbl.t;
    mutable ws_order : string list;  (* reversed, first-write order *)
    mutable held : int list;  (* lock stripes held at this site *)
    mutable settled : bool;  (* counter released (commit or abort) *)
  }

  let stripe s key = Hashtbl.hash (key, 17) land s.lock_mask

  (* Exclusive, non-blocking item lock: retry a bounded number of times,
     then give up; the caller aborts the whole transaction and retries it
     from scratch (no lock waits, hence no deadlocks). *)
  let lock_item sub marker key =
    let s = sub.sub_site in
    let idx = stripe s key in
    if not (List.mem idx sub.held) then begin
      let cell = s.item_locks.(idx) in
      let rec try_take attempts =
        if Sync.compare_and_set cell 0 marker then sub.held <- idx :: sub.held
        else if attempts >= 10_000 then raise Lock_busy
        else begin
          Sync.relax attempts;
          try_take (attempts + 1)
        end
      in
      try_take 0
    end

  let release_locks sub =
    let s = sub.sub_site in
    List.iter (fun idx -> Sync.set s.item_locks.(idx) 0) sub.held;
    sub.held <- []

  (* Subtxn.start: pin u in this domain's update-count shard. *)
  let begin_sub w s =
    let v = pin w.uc s.u s in
    { sub_site = s; version = v; counted = v; ws = Hashtbl.create 8;
      ws_order = []; held = []; settled = false }

  (* Subtxn.move_to under No_undo: deferred writes carry no version, so
     promoting the session's version is the whole job. *)
  let move_to w ~txn sub ~newv ~at_commit =
    if newv > sub.version then begin
      sub.version <- newv;
      Sim.Metrics.record w.m
        (Sim.Event.Mtf
           { txn; site = sub.sub_site.site_id; version = newv; at_commit;
             copied = 0 })
    end

  (* Subtxn.catch_up: a later version of an accessed item means a
     conflicting transaction of the next version already committed;
     serialize after it by moving to the site's current update version. *)
  let catch_up w ~txn sub key =
    match Mstore.max_version sub.sub_site.store key with
    | Some cur when cur > sub.version ->
        move_to w ~txn sub ~newv:(Sync.get sub.sub_site.u) ~at_commit:false
    | _ -> ()

  let ws_put sub key value =
    if not (Hashtbl.mem sub.ws key) then sub.ws_order <- key :: sub.ws_order;
    Hashtbl.replace sub.ws key value

  let settle w sub =
    sub.settled <- true;
    unpin w.uc sub.sub_site sub.counted;
    release_locks sub

  (* One attempt at the transaction body; raises Lock_busy to signal a
     whole-transaction retry. *)
  let attempt w ~root ~ops ~marker =
    let subs : (int, 'v sub) Hashtbl.t = Hashtbl.create 4 in
    let get_sub i =
      match Hashtbl.find_opt subs i with
      | Some sub -> sub
      | None ->
          let sub = begin_sub w w.b.sites.(i) in
          Hashtbl.replace subs i sub;
          sub
    in
    let reads = ref [] in
    let cleanup () =
      Hashtbl.iter (fun _ sub -> if not sub.settled then settle w sub) subs
    in
    match
      (* Txn_core registers the root's subtransaction first: it always
         takes part in the commit decision, ops there or not. *)
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
      (* Prepare round: collect each participant's version (reads hold
         the same exclusive stripes until commit), then the paper's
         version-max decision. *)
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
      (* Commit round, in site order like Txn_core.at_sub_nodes.  The
         count stays at the version it was taken at, so Phase 1's drain
         of that version still waits for this commit. *)
      List.iter
        (fun sub ->
          let s = sub.sub_site in
          if sub.version < final_version then begin
            raise_to s.u final_version;
            move_to w ~txn:marker sub ~newv:final_version ~at_commit:true
          end;
          List.iter
            (fun key ->
              Mstore.apply s.store key final_version (Hashtbl.find sub.ws key))
            (List.rev sub.ws_order);
          settle w sub)
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
    let txn_id = Sync.fetch_and_add w.b.txn_seq 1 in
    let rec go retries =
      match attempt w ~root ~ops ~marker:txn_id with
      | Ok (final_version, reads) ->
          Sim.Metrics.record w.m
            (Sim.Event.Commit { txn = txn_id; root; version = final_version });
          Committed { txn_id; final_version; reads; retries }
      | Error `Busy when retries < max_retries ->
          (* Contention backoff proportional to how often we failed: a
             delay, not a wait for a write, so no [relax]. *)
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

  (* ---- Queries (§3.3) ------------------------------------------------ *)

  (* The begin step of §3.3, {v := q; queryCount[v]++}: the operation the
     paper says needs only a latch, which here needs not even that.  The
     buggy twin drops the re-read of q: on a sequential schedule that is
     indistinguishable from the real thing, and only an advancement
     round running between its read and its bump can tell. *)
  let query_begin w s =
    if w.b.skip_pin_recheck then begin
      let v = Sync.get s.q in
      incr w.qc.(slot s v);
      v
    end
    else pin w.qc s.q s

  let run_query w ~root ~reads =
    let b = w.b in
    let rs = b.sites.(root) in
    let v = query_begin w rs in
    (* Query_core.visit: first touch of a child site catches its query
       version up and counts the query there; released below.  No
       recheck: the root's count holds back every later Phase 2, so no
       drain of v at the child can complete and let v be collected under
       this read. *)
    let visited = ref [] in
    let visit i =
      let s = b.sites.(i) in
      if i <> root && not (List.memq s !visited) then begin
        visited := s :: !visited;
        raise_to s.q v;
        incr w.qc.(slot s v)
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
    (* Guard: under a valid pin the root cannot have collected v.  Read
       before the release, raise after it, so an advancer draining this
       count never waits on a query that is gone. *)
    let collected = Sync.get rs.g >= v in
    (* Children release before the root, as in Query_core.finish. *)
    List.iter (fun s -> unpin w.qc s v) !visited;
    unpin w.qc rs v;
    if collected then invalid_arg "query version collected under its pin";
    Sim.Metrics.record w.m rs.query_done;
    { q_version = v; values }

  (* ---- Advancement (§3.2: the three phases) -------------------------- *)

  (* Wait until no worker holds a count of version [v] at [s].  The
     caller has already raised the site's u or q past [v], so the worker
     list read here includes every worker whose pin of [v] validated. *)
  let await_drained b counts s v =
    let i = slot s v in
    let held w = Sync.get (counts w).(i) <> 0 in
    let rec wait n =
      if List.exists held (Sync.get b.workers) then begin
        Sync.relax n;
        wait (n + 1)
      end
    in
    wait 0

  let round w ~coordinator =
    let b = w.b in
    let k = b.sites.(coordinator) in
    let cu = u k and cq = q k and cg = g k in
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
        (* Phase 1: advance-u everywhere (with the g >= newu-3 inference
           rule), then wait out the previous version's updates. *)
        Array.iter
          (fun s ->
            catch_up_gc s ~target:(newu - 3);
            raise_to s.u newu;
            await_drained b (fun w -> w.uc) s (newu - 1))
          b.sites;
        let t1 = Unix.gettimeofday () in
        let newq = newu - 1 in
        Sim.Metrics.record w.m
          (Sim.Event.Phase1_done
             { site = coordinator; newq; duration = t1 -. t0 });
        (* Phase 2: advance-q, wait out the old version's queries. *)
        Array.iter
          (fun s ->
            raise_to s.q newq;
            await_drained b (fun w -> w.qc) s (newq - 1))
          b.sites;
        let newg = newu - 2 in
        let duration = Unix.gettimeofday () -. t1 in
        Sim.Metrics.record w.m
          (Sim.Event.Phase2_done { site = coordinator; newg; duration });
        (* Phase 3: collect the version nobody can read anymore. *)
        Array.iter (fun s -> catch_up_gc s ~target:newg) b.sites;
        `Completed newu

  let advance w ~coordinator =
    if not (Sync.compare_and_set w.b.advancing false true) then `Busy
    else
      Fun.protect
        ~finally:(fun () -> Sync.set w.b.advancing false)
        (fun () -> round w ~coordinator)

  (* ---- Quiesce checks ------------------------------------------------ *)

  let counts t =
    List.concat_map
      (fun w -> Array.to_list (Array.map Sync.get (Array.append w.uc w.qc)))
      (Sync.get t.workers)

  (* With no transaction or query in flight, every site must be at rest:
     u = q + 1, g >= u - 3, every counter slot zero summed over the
     shards, no item lock held. *)
  let check_quiescent t =
    let problems = ref [] in
    let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
    let workers = Sync.get t.workers in
    Array.iter
      (fun s ->
        let u = u s and q = q s and g = g s in
        if u <> q + 1 then
          add "site %d: u=%d q=%d (want u = q+1)" s.site_id u q;
        if g < u - 3 then
          add "site %d: g=%d lags u=%d by more than 3" s.site_id g u;
        List.iter
          (fun (name, counts) ->
            for k = 0 to ring - 1 do
              let i = (s.site_id * ring) + k in
              let n =
                List.fold_left
                  (fun acc w -> acc + Sync.get (counts w).(i))
                  0 workers
              in
              if n <> 0 then
                add "site %d: %s slot %d = %d at quiesce" s.site_id name k n
            done)
          [ ("updateCount", fun w -> w.uc); ("queryCount", fun w -> w.qc) ];
        Array.iteri
          (fun i cell ->
            if Sync.get cell <> 0 then
              add "site %d: item lock stripe %d still held" s.site_id i)
          s.item_locks)
      t.sites;
    List.rev !problems

  let latch_acquisitions t =
    Array.fold_left
      (fun acc s -> acc + Mstore.latch_acquisitions s.store)
      0 t.sites
end

(* Real domains.  [relax] spins with [Domain.cpu_relax], but one wait's
   every [spins_per_sleep]-th call sleeps instead, handing the core back:
   with more domains than cores, an advancer draining a count held by a
   descheduled query would otherwise spin out its whole timeslice before
   that query can run and release it.  A short wait never sleeps. *)
include Make (struct
  include Atomic

  let spins_per_sleep = 1024

  let relax n =
    if n mod spins_per_sleep = spins_per_sleep - 1 then Unix.sleepf 0.0
    else Domain.cpu_relax ()
end)
