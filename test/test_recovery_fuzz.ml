(* Crash-at-every-prefix recovery fuzzing.

   A seeded random workload drives one node's scheme + WAL, producing a
   record stream.  The log is then truncated at EVERY record boundary —
   each prefix is a possible crash image (the volatile tail died with the
   node) — and [Wal.Recovery.replay] runs against a naive reference model
   that interprets the same prefix.  At every prefix point:

   - no committed transaction is lost: every key reads back the value of
     the last transaction with a Commit record in the prefix;
   - no uncommitted update is visible: writes of in-flight or aborted
     transactions never surface;
   - the version counters (u, q, g) recover to exactly the
     last-logged/checkpointed values;
   - [committed_transactions] and [in_flight_transactions] match the
     model's bookkeeping;
   - live backup apply agrees with replay: the same prefix fed record by
     record through [Ava3.Node_state.apply] on a fresh node, with the
     same store bound, ends with the same store contents (every version
     of every key) and the same u, q and g.

   On a mismatch the failing seed, prefix point and full record dump are
   written to fuzz-failure-<seed>.txt so CI can upload the artifact; the
   file name alone is enough to reproduce (the workload is a pure
   function of the seed).

   A second, cluster-level test crashes a live node mid-workload with the
   durability model on and checks that every update acknowledged
   Committed before the crash is still in [committed_transactions] (and
   readable) after recovery. *)

module Store = Vstore.Store
module Log = Wal.Log
module Record = Wal.Record
module Scheme = Wal.Scheme
module Recovery = Wal.Recovery

let keys = Array.init 9 (Printf.sprintf "k%d")

(* ---------- workload generation ---------- *)

(* Grow a log the way a node does: sessions begin at the current update
   version, write, then commit (moving to the future first if an
   advancement overtook them) or abort.  Advancement and collection
   records appear between transactions, and occasional checkpoints (only
   at quiescent points) bake the store into the log.  Checkpoints are
   appended WITHOUT truncating so the full stream survives for prefix
   enumeration — replay treats a mid-log checkpoint exactly like the
   first record of a truncated log. *)
let gen_workload rng kind =
  let store : int Store.t = Store.create () in
  let log : int Log.t = Log.create () in
  let scheme = Scheme.create kind ~store ~log in
  let u = ref 1 and q = ref 0 and g = ref (-1) in
  let next_txn = ref 0 in
  (* Each live session owns one of three disjoint key slices — the scheme
     assumes its caller holds exclusive locks, so two concurrent sessions
     must never touch the same item. *)
  let sessions = ref [] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let open_session () =
    let taken = List.map (fun (_, slot, _, _) -> slot) !sessions in
    match List.filter (fun s -> not (List.mem s taken)) [ 0; 1; 2 ] with
    | [] -> ()
    | free ->
        incr next_txn;
        let s = Scheme.begin_session scheme ~txn:!next_txn ~version:!u in
        sessions := (!next_txn, pick free, s, ref []) :: !sessions
  in
  let write_in_session () =
    match !sessions with
    | [] -> open_session ()
    | l ->
        let _, slot, s, _ = pick l in
        let key = keys.(slot + (3 * Random.State.int rng 3)) in
        let value =
          if Random.State.int rng 10 = 0 then None
          else Some (Random.State.int rng 1000)
        in
        Scheme.write scheme s key value
  in
  (* Savepoints: mark the picked session, or roll it back to its most
     recent mark (popping it), exercising the Rollback record across every
     crash prefix. *)
  let savepoint_or_rollback () =
    match !sessions with
    | [] -> ()
    | l ->
        let _, _, s, sps = pick l in
        if !sps = [] || Random.State.bool rng then
          sps := Scheme.savepoint scheme s :: !sps
        else begin
          match !sps with
          | sp :: rest ->
              Scheme.rollback_to scheme s sp;
              sps := rest
          | [] -> ()
        end
  in
  let close_session ~commit =
    match !sessions with
    | [] -> ()
    | l ->
        let ((_, _, s, _) as chosen) = pick l in
        sessions := List.filter (fun c -> c != chosen) l;
        if commit then begin
          ignore (Scheme.move_to_future scheme s ~new_version:!u : int);
          Scheme.commit scheme s ~final_version:(Scheme.version s)
        end
        else Scheme.abort scheme s
  in
  (* Version advancement mimics the protocol's gating: q never reaches a
     version with a live session (the real coordinator drains the update
     counters first), and g trails q. *)
  let advance () =
    incr u;
    Log.append log (Record.Advance_update !u);
    let min_active =
      List.fold_left
        (fun acc (_, _, s, _) -> min acc (Scheme.version s))
        max_int !sessions
    in
    let new_q = min (!u - 1) (min_active - 1) in
    if new_q > !q then begin
      q := new_q;
      Log.append log (Record.Advance_query !q)
    end;
    if !q - 1 > !g then begin
      incr g;
      Store.gc store ~collect:!g ~query:!q;
      Log.append log (Record.Collect { collect = !g; query = !q })
    end
  in
  let checkpoint () =
    if !sessions = [] then
      Log.append log
        (Record.Checkpoint
           {
             items = Store.snapshot store;
             u = !u;
             q = !q;
             g = !g;
           })
  in
  let steps = 90 + Random.State.int rng 40 in
  for _ = 1 to steps do
    match Random.State.int rng 100 with
    | r when r < 15 -> if List.length !sessions < 3 then open_session ()
    | r when r < 50 -> write_in_session ()
    | r when r < 60 -> savepoint_or_rollback ()
    | r when r < 74 -> close_session ~commit:true
    | r when r < 81 -> close_session ~commit:false
    | r when r < 93 -> advance ()
    | _ -> checkpoint ()
  done;
  (* Settle: resolve every open session so the tail of the stream is also
     a quiescent point (prefixes still cut through mid-transaction
     states). *)
  while !sessions <> [] do
    close_session ~commit:(Random.State.bool rng)
  done;
  Log.records log

(* ---------- naive reference model ---------- *)

type model = {
  vals : (string, int option) Hashtbl.t;
      (* visible committed value per key; [Some None] is a tombstone *)
  pending : (int, (string * int option) list) Hashtbl.t;
  resolved : (int, bool) Hashtbl.t;  (* txn -> still in flight? *)
  mutable committed : int list;  (* reverse commit order *)
  mutable mu : int;
  mutable mq : int;
  mutable mg : int;
}

let model_create () =
  {
    vals = Hashtbl.create 16;
    pending = Hashtbl.create 16;
    resolved = Hashtbl.create 16;
    committed = [];
    mu = 1;
    mq = 0;
    mg = -1;
  }

let model_apply m = function
  | Record.Begin { txn; _ } ->
      Hashtbl.replace m.pending txn [];
      Hashtbl.replace m.resolved txn true
  | Record.Update { txn; key; value } ->
      let w = Option.value (Hashtbl.find_opt m.pending txn) ~default:[] in
      Hashtbl.replace m.pending txn ((key, value) :: w)
  | Record.Commit { txn; _ } ->
      (match Hashtbl.find_opt m.pending txn with
      | None -> ()
      | Some writes ->
          List.iter
            (fun (key, value) -> Hashtbl.replace m.vals key value)
            (List.rev writes);
          Hashtbl.remove m.pending txn);
      Hashtbl.replace m.resolved txn false;
      m.committed <- txn :: m.committed
  | Record.Rollback { txn; keep } -> (
      match Hashtbl.find_opt m.pending txn with
      | None -> ()
      | Some w ->
          let rec drop n l =
            if n <= 0 then l
            else match l with [] -> [] | _ :: tl -> drop (n - 1) tl
          in
          Hashtbl.replace m.pending txn (drop (List.length w - keep) w))
  | Record.Abort { txn } ->
      Hashtbl.remove m.pending txn;
      Hashtbl.replace m.resolved txn false
  | Record.Advance_update v -> if v > m.mu then m.mu <- v
  | Record.Advance_query v -> if v > m.mq then m.mq <- v
  | Record.Collect { collect; _ } ->
      (* Collection drops/renumbers old versions; the latest visible value
         of every key is untouched. *)
      if collect > m.mg then m.mg <- collect
  | Record.Checkpoint { items; u; q; g } ->
      Hashtbl.reset m.vals;
      Hashtbl.reset m.pending;
      List.iter
        (fun (key, entries) ->
          match List.rev entries with
          | (_, newest) :: _ -> Hashtbl.replace m.vals key newest
          | [] -> ())
        items;
      m.mu <- u;
      m.mq <- q;
      m.mg <- g

let model_visible m key =
  match Hashtbl.find_opt m.vals key with Some (Some v) -> Some v | _ -> None

let model_in_flight m =
  Hashtbl.fold (fun txn live acc -> if live then txn :: acc else acc) m.resolved []
  |> List.sort compare

(* ---------- the prefix sweep ---------- *)

let dump_failure ~seed ~kind ~prefix ~records message =
  let path = Printf.sprintf "fuzz-failure-%d.txt" seed in
  let oc = open_out path in
  let ppf = Format.formatter_of_out_channel oc in
  Format.fprintf ppf
    "recovery fuzz failure@.seed: %d@.scheme: %s@.crash prefix: %d of %d \
     records@.%s@.@.log records (first %d form the crash image):@."
    seed
    (match kind with Scheme.No_undo -> "no-undo" | Scheme.Undo_redo -> "undo-redo")
    prefix (List.length records) message prefix;
  List.iteri
    (fun i r ->
      Format.fprintf ppf "%s%4d. %a@."
        (if i < prefix then " " else "!")
        i (Record.pp Format.pp_print_int) r)
    records;
  Format.pp_print_flush ppf ();
  close_out oc;
  Alcotest.failf "seed %d prefix %d: %s (details in %s)" seed prefix message
    path

(* The fresh node's store is unbounded like replay's default one: overlap
   GC lifts the three-version cap ({!Ava3.Config.store_bound}). *)
let apply_config = { Ava3.Config.default with overlap_gc = true }

let applied_node ~records ~prefix =
  let engine = Sim.Engine.create ~trace:false () in
  let nd =
    Ava3.Node_state.create ~engine ~node_id:0 ~config:apply_config ()
  in
  List.iteri
    (fun i r -> if i < prefix then ignore (Ava3.Node_state.apply nd r : bool))
    records;
  nd

let check_prefix ~seed ~kind ~records ~prefix =
  let truncated : int Log.t = Log.create () in
  List.iteri (fun i r -> if i < prefix then Log.append truncated r) records;
  let model = model_create () in
  List.iteri (fun i r -> if i < prefix then model_apply model r) records;
  let fail fmt = Printf.ksprintf (dump_failure ~seed ~kind ~prefix ~records) fmt in
  let store, versions =
    Recovery.replay truncated
      ?bound:(Ava3.Config.store_bound apply_config)
      ~gc_renumber:apply_config.gc_renumber ()
  in
  (* Committed effects survive; uncommitted ones never surface. *)
  Array.iter
    (fun key ->
      let expected = model_visible model key
      and got = Store.read_le store key max_int in
      if expected <> got then
        fail "key %s: recovered %s, reference model has %s" key
          (match got with None -> "nothing" | Some v -> string_of_int v)
          (match expected with None -> "nothing" | Some v -> string_of_int v))
    keys;
  (* Version counters recover to the last logged/checkpointed values. *)
  if
    (versions.Recovery.update_version, versions.Recovery.query_version,
     versions.Recovery.collected_version)
    <> (model.mu, model.mq, model.mg)
  then
    fail "versions recovered (u=%d q=%d g=%d), reference has (u=%d q=%d g=%d)"
      versions.Recovery.update_version versions.Recovery.query_version
      versions.Recovery.collected_version model.mu model.mq model.mg;
  (* Commit-order bookkeeping agrees. *)
  if Recovery.committed_transactions truncated <> List.rev model.committed
  then fail "committed transaction list diverges from the reference";
  if Recovery.in_flight_transactions truncated <> model_in_flight model then
    fail "in-flight transaction list diverges from the reference";
  (* Live backup apply ends where replay does. *)
  let nd = applied_node ~records ~prefix in
  let contents s = Store.snapshot s in
  if contents (Ava3.Node_state.store nd) <> contents store then
    fail "Node_state.apply: store contents differ from replay's";
  let applied = Ava3.Node_state.(u nd, q nd, g nd) in
  if
    applied
    <> (versions.Recovery.update_version, versions.Recovery.query_version,
        versions.Recovery.collected_version)
  then
    let u, q, g = applied in
    fail "Node_state.apply: versions (u=%d q=%d g=%d), replay has (u=%d \
          q=%d g=%d)"
      u q g versions.Recovery.update_version versions.Recovery.query_version
      versions.Recovery.collected_version

let test_crash_at_every_prefix () =
  let seeds = List.init 12 (fun i -> 1000 + (77 * i)) in
  let total = ref 0 in
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let kind = if seed mod 2 = 0 then Scheme.No_undo else Scheme.Undo_redo in
      let records = gen_workload rng kind in
      let n = List.length records in
      for prefix = 0 to n do
        incr total;
        check_prefix ~seed ~kind ~records ~prefix
      done)
    seeds;
  (* The CI gate: this suite only counts if it really sweeps the space. *)
  Alcotest.(check bool)
    (Printf.sprintf "swept >= 1000 prefix points (got %d)" !total)
    true (!total >= 1000)

(* ---------- live crash: acked commits survive ---------- *)

let test_acked_commits_survive_crash () =
  let seed = 4242L in
  let engine = Sim.Engine.create ~seed () in
  let config =
    {
      Ava3.Config.default with
      rpc_timeout = 10.0;
      disk_force_latency = 0.5;
      group_commit_window = 2.0;
    }
  in
  let db : int Ava3.Cluster.t = Ava3.Cluster.create ~engine ~config ~nodes:2 () in
  for n = 0 to 1 do
    Ava3.Cluster.load db ~node:n
      (List.init 8 (fun i -> (Printf.sprintf "n%d-k%d" n i, 0)))
  done;
  (* Clients hammer node 0 with single-node updates on private keys,
     recording every acknowledged commit. *)
  let acked = ref [] in
  for c = 0 to 3 do
    Sim.Engine.spawn engine ~name:(Printf.sprintf "client%d" c) (fun () ->
        for i = 1 to 12 do
          let key = Printf.sprintf "n0-k%d" ((2 * c) mod 8) in
          (match
             Ava3.Cluster.run_update db ~root:0
               ~ops:[ Ava3.Update_exec.Write { node = 0; key; value = (100 * c) + i } ]
           with
          | Ava3.Update_exec.Committed info ->
              acked := (info.Ava3.Update_exec.txn_id, key, (100 * c) + i) :: !acked
          | Ava3.Update_exec.Aborted _ | Ava3.Update_exec.Root_down _ -> ());
          Sim.Engine.sleep 1.5
        done)
  done;
  let acked_before_crash = ref [] in
  Sim.Engine.schedule engine ~name:"nemesis" ~delay:13.25 (fun () ->
      acked_before_crash := !acked;
      Ava3.Cluster.crash db ~node:0;
      Sim.Engine.sleep 6.0;
      Ava3.Cluster.recover db ~node:0);
  Sim.Engine.run engine;
  Alcotest.(check bool)
    "some commits were acknowledged before the crash" true
    (List.length !acked_before_crash > 0);
  (* Every commit acknowledged before the crash must be in the recovered
     log's committed set — the group-commit ack means its records were
     forced. *)
  let survivors =
    Recovery.committed_transactions (Ava3.Node_state.log (Ava3.Cluster.node db 0))
  in
  List.iter
    (fun (txn, _, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "acked T%d survived the crash" txn)
        true (List.mem txn survivors))
    !acked_before_crash

let () =
  Alcotest.run "recovery_fuzz"
    [
      ( "crash-at-every-prefix",
        [
          Alcotest.test_case "replay matches reference at every boundary"
            `Quick test_crash_at_every_prefix;
        ] );
      ( "live crash",
        [
          Alcotest.test_case "acked commits survive a node crash" `Quick
            test_acked_commits_survive_crash;
        ] );
    ]
