(* Tests for the WAL, the two recovery schemes, their moveToFuture
   implementations, and crash replay. *)

module Store = Vstore.Store
module Log = Wal.Log
module Scheme = Wal.Scheme
module Recovery = Wal.Recovery

let vopt = Alcotest.(option int)
let check_int = Alcotest.(check int)

let make kind =
  let store : int Store.t = Store.create ~bound:3 () in
  let log = Log.create () in
  (Scheme.create kind ~store ~log, store, log)

let both_kinds f () =
  f Scheme.No_undo;
  f Scheme.Undo_redo

(* Under No_undo, writes stay out of the store until commit; under
   Undo_redo they are applied in place. *)
let test_write_visibility () =
  let t, store, _ = make Scheme.No_undo in
  let s = Scheme.begin_session t ~txn:1 ~version:1 in
  Scheme.write t s "x" (Some 10);
  Alcotest.check vopt "no-undo: store untouched" None (Store.read_le store "x" 9);
  Alcotest.check
    Alcotest.(option (option int))
    "own write visible" (Some (Some 10)) (Scheme.read_own t s "x");
  let t2, store2, _ = make Scheme.Undo_redo in
  let s2 = Scheme.begin_session t2 ~txn:1 ~version:1 in
  Scheme.write t2 s2 "x" (Some 10);
  Alcotest.check vopt "undo-redo: store updated" (Some 10)
    (Store.read_le store2 "x" 9);
  Alcotest.check
    Alcotest.(option (option int))
    "read_own defers to store" None (Scheme.read_own t2 s2 "x")

let test_commit_applies kind =
  let t, store, _ = make kind in
  let s = Scheme.begin_session t ~txn:1 ~version:1 in
  Scheme.write t s "x" (Some 10);
  Scheme.write t s "y" None;
  Scheme.commit t s ~final_version:1;
  Alcotest.check vopt "x committed" (Some 10) (Store.read_le store "x" 1);
  Alcotest.check vopt "y deleted" None (Store.read_le store "y" 1)

let test_abort_erases kind =
  let t, store, _ = make kind in
  Store.write store "x" 0 1;
  let s = Scheme.begin_session t ~txn:1 ~version:1 in
  Scheme.write t s "x" (Some 99);
  Scheme.write t s "z" (Some 5);
  Scheme.abort t s;
  Alcotest.check vopt "x back to original" (Some 1) (Store.read_le store "x" 9);
  Alcotest.check vopt "z never existed" None (Store.read_le store "z" 9);
  check_int "no version-1 leftovers" 1 (Store.live_versions store "x")

let test_abort_restores_overwrite () =
  (* Undo-redo specific: overwriting an existing version-1 entry and
     aborting must restore the old version-1 value, not delete it. *)
  let t, store, _ = make Scheme.Undo_redo in
  Store.write store "x" 1 50;
  let s = Scheme.begin_session t ~txn:2 ~version:1 in
  Scheme.write t s "x" (Some 99);
  Scheme.write t s "x" (Some 100);
  Scheme.abort t s;
  Alcotest.check vopt "restored first image" (Some 50) (Store.read_le store "x" 1)

let test_mtf_no_undo_trivial () =
  let t, store, _ = make Scheme.No_undo in
  let s = Scheme.begin_session t ~txn:1 ~version:1 in
  Scheme.write t s "x" (Some 10);
  check_int "nothing copied" 0 (Scheme.move_to_future t s ~new_version:2);
  check_int "session moved" 2 (Scheme.version s);
  Scheme.commit t s ~final_version:2;
  Alcotest.check vopt "committed at final version" (Some 10)
    (Store.read_exact store "x" 2)

let test_mtf_undo_redo_moves_updates () =
  let t, store, _ = make Scheme.Undo_redo in
  Store.write store "x" 0 1;
  Store.write store "y" 0 2;
  let s = Scheme.begin_session t ~txn:1 ~version:1 in
  Scheme.write t s "x" (Some 11);
  Scheme.write t s "y" (Some 12);
  (* Version 1 currently holds the transaction's updates. *)
  Alcotest.check vopt "pre-mtf v1" (Some 11) (Store.read_exact store "x" 1);
  check_int "two items copied" 2 (Scheme.move_to_future t s ~new_version:2);
  (* Updates moved to version 2; version 1 scrubbed. *)
  Alcotest.check vopt "x moved" (Some 11) (Store.read_exact store "x" 2);
  Alcotest.check vopt "y moved" (Some 12) (Store.read_exact store "y" 2);
  Alcotest.(check bool) "v1 of x gone" false (Store.exists_in store "x" 1);
  Alcotest.(check bool) "v1 of y gone" false (Store.exists_in store "y" 1);
  Scheme.commit t s ~final_version:2

let test_mtf_undo_redo_restores_overwritten () =
  (* The transaction overwrote an existing version-1 entry (written by an
     earlier committed version-1 transaction): moveToFuture must restore
     that entry, not delete it. *)
  let t, store, _ = make Scheme.Undo_redo in
  Store.write store "x" 1 50;
  let s = Scheme.begin_session t ~txn:2 ~version:1 in
  Scheme.write t s "x" (Some 99);
  check_int "one item copied" 1 (Scheme.move_to_future t s ~new_version:2);
  Alcotest.check vopt "v1 restored" (Some 50) (Store.read_exact store "x" 1);
  Alcotest.check vopt "v2 has update" (Some 99) (Store.read_exact store "x" 2);
  Scheme.commit t s ~final_version:2

let test_mtf_then_abort () =
  (* Abort after moveToFuture must clean the new version. *)
  let t, store, _ = make Scheme.Undo_redo in
  Store.write store "x" 0 1;
  let s = Scheme.begin_session t ~txn:1 ~version:1 in
  Scheme.write t s "x" (Some 11);
  ignore (Scheme.move_to_future t s ~new_version:2 : int);
  Scheme.abort t s;
  Alcotest.(check bool) "v2 erased" false (Store.exists_in store "x" 2);
  Alcotest.(check bool) "v1 erased" false (Store.exists_in store "x" 1);
  Alcotest.check vopt "v0 intact" (Some 1) (Store.read_exact store "x" 0)

let test_mtf_noop_when_not_ahead kind =
  let t, _, _ = make kind in
  let s = Scheme.begin_session t ~txn:1 ~version:3 in
  check_int "same version copies nothing" 0
    (Scheme.move_to_future t s ~new_version:3);
  check_int "older version copies nothing" 0
    (Scheme.move_to_future t s ~new_version:2);
  check_int "version unchanged" 3 (Scheme.version s)

let test_recovery_replays_committed kind =
  let t, _, log = make kind in
  let s1 = Scheme.begin_session t ~txn:1 ~version:1 in
  Scheme.write t s1 "x" (Some 10);
  Scheme.commit t s1 ~final_version:1;
  let s2 = Scheme.begin_session t ~txn:2 ~version:1 in
  Scheme.write t s2 "y" (Some 20);
  Scheme.abort t s2;
  let s3 = Scheme.begin_session t ~txn:3 ~version:1 in
  Scheme.write t s3 "z" (Some 30);
  (* Crash: txn 3 is in flight and must not survive. *)
  let recovered, versions = Recovery.replay log ~bound:3 () in
  Alcotest.check vopt "committed x" (Some 10) (Store.read_le recovered "x" 9);
  Alcotest.check vopt "aborted y gone" None (Store.read_le recovered "y" 9);
  Alcotest.check vopt "in-flight z gone" None (Store.read_le recovered "z" 9);
  check_int "u recovered" 1 versions.Recovery.update_version;
  check_int "q recovered" 0 versions.Recovery.query_version;
  Alcotest.(check (list int)) "committed list" [ 1 ] (Recovery.committed_transactions log);
  Alcotest.(check (list int)) "in-flight list" [ 3 ] (Recovery.in_flight_transactions log)

let test_recovery_applies_final_version kind =
  (* Updates logged at version 1 but committed at version 2 (the
     transaction moved to the future at commit time): recovery must apply
     them at 2. *)
  let t, _, log = make kind in
  let s = Scheme.begin_session t ~txn:1 ~version:1 in
  Scheme.write t s "x" (Some 10);
  ignore (Scheme.move_to_future t s ~new_version:2 : int);
  Scheme.commit t s ~final_version:2;
  let recovered, _ = Recovery.replay log ~bound:3 () in
  Alcotest.(check bool) "nothing at v1" false (Store.exists_in recovered "x" 1);
  Alcotest.check vopt "applied at v2" (Some 10) (Store.read_exact recovered "x" 2)

let test_recovery_replays_advancement () =
  let log : int Log.t = Log.create () in
  Log.append log (Wal.Record.Advance_update 2);
  Log.append log (Wal.Record.Advance_query 1);
  Log.append log (Wal.Record.Collect { collect = 0; query = 1 });
  let _, versions = Recovery.replay log () in
  check_int "u" 2 versions.Recovery.update_version;
  check_int "q" 1 versions.Recovery.query_version;
  check_int "g" 0 versions.Recovery.collected_version

let test_recovery_gc_renumbering () =
  (* The Collect record must replay the renumbering rule so the recovered
     store matches the live one. *)
  let t, live, log = make Scheme.No_undo in
  let s = Scheme.begin_session t ~txn:1 ~version:0 in
  Scheme.write t s "x" (Some 10);
  Scheme.commit t s ~final_version:0;
  Log.append log (Wal.Record.Collect { collect = 0; query = 1 });
  Store.gc live ~collect:0 ~query:1;
  let recovered, _ = Recovery.replay log ~bound:3 () in
  Alcotest.(check (list int))
    "renumbered identically"
    (Store.versions_of live "x")
    (Store.versions_of recovered "x")

(* Property: for random op sequences, a commit under No_undo and Undo_redo
   leaves identical visible states. *)
let prop_schemes_agree =
  let op_gen =
    QCheck.Gen.(
      list_size (int_bound 30)
        (pair (map (Printf.sprintf "k%d") (int_bound 8))
           (oneof [ map (fun v -> Some v) (int_bound 100); return None ])))
  in
  QCheck.Test.make ~name:"no-undo and undo-redo commit identical states"
    ~count:100 (QCheck.make op_gen) (fun ops ->
      let run kind =
        let t, store, _ = make kind in
        Store.write store "k0" 0 (-1);
        Store.write store "k1" 0 (-2);
        let s = Scheme.begin_session t ~txn:1 ~version:1 in
        List.iter (fun (k, v) -> Scheme.write t s k v) ops;
        ignore (Scheme.move_to_future t s ~new_version:2 : int);
        Scheme.commit t s ~final_version:2;
        List.map
          (fun i ->
            let k = Printf.sprintf "k%d" i in
            (Store.read_le store k 9, Store.versions_of store k))
          [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]
      in
      run Scheme.No_undo = run Scheme.Undo_redo)

(* Property: abort is a perfect undo under both schemes. *)
let prop_abort_is_identity =
  let op_gen =
    QCheck.Gen.(
      list_size (int_bound 30)
        (pair (map (Printf.sprintf "k%d") (int_bound 8))
           (oneof [ map (fun v -> Some v) (int_bound 100); return None ])))
  in
  QCheck.Test.make ~name:"abort leaves the store exactly as before"
    ~count:100
    (QCheck.make QCheck.Gen.(pair op_gen bool))
    (fun (ops, use_undo_redo) ->
      let kind = if use_undo_redo then Scheme.Undo_redo else Scheme.No_undo in
      let t, store, _ = make kind in
      Store.write store "k0" 0 7;
      Store.write store "k1" 1 8;
      let snapshot () =
        List.map
          (fun i ->
            let k = Printf.sprintf "k%d" i in
            (Store.versions_of store k, Store.read_le store k 9))
          [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]
      in
      let before = snapshot () in
      let s = Scheme.begin_session t ~txn:1 ~version:1 in
      List.iter (fun (k, v) -> Scheme.write t s k v) ops;
      Scheme.abort t s;
      before = snapshot ())


let test_checkpoint_replay_equivalence kind =
  (* Recovery from [checkpoint + tail] must equal recovery from the full
     history. *)
  let t, _, log = make kind in
  let s1 = Scheme.begin_session t ~txn:1 ~version:1 in
  Scheme.write t s1 "x" (Some 10);
  Scheme.write t s1 "y" (Some 20);
  Scheme.commit t s1 ~final_version:1;
  let full_store, full_versions = Recovery.replay log ~bound:3 () in
  (* Checkpoint captures that state; new activity follows. *)
  Recovery.checkpoint log ~store:full_store ~u:2 ~q:1 ~g:0;
  check_int "log reset to one record" 1 (Log.length log);
  let s2 = Scheme.begin_session t ~txn:2 ~version:2 in
  Scheme.write t s2 "z" (Some 30);
  Scheme.commit t s2 ~final_version:2;
  let recovered, versions = Recovery.replay log ~bound:3 () in
  Alcotest.check vopt "pre-checkpoint data" (Some 10)
    (Store.read_le recovered "x" 9);
  Alcotest.check vopt "post-checkpoint data" (Some 30)
    (Store.read_le recovered "z" 9);
  check_int "u from checkpoint" 2 versions.Recovery.update_version;
  check_int "q from checkpoint" 1 versions.Recovery.query_version;
  ignore full_versions

let test_checkpoint_discards_pre_history () =
  (* In-flight records from before a checkpoint are gone — which is exactly
     why checkpoints require quiescence. *)
  let t, _, log = make Scheme.No_undo in
  let s1 = Scheme.begin_session t ~txn:1 ~version:1 in
  Scheme.write t s1 "x" (Some 1);
  Scheme.commit t s1 ~final_version:1;
  let store, _ = Recovery.replay log ~bound:3 () in
  Recovery.checkpoint log ~store ~u:1 ~q:0 ~g:(-1);
  let recovered, _ = Recovery.replay log ~bound:3 () in
  Alcotest.check vopt "state preserved through checkpoint" (Some 1)
    (Store.read_le recovered "x" 9);
  check_int "single checkpoint record" 1 (Log.length log)

(* Property: truncating the log at a checkpoint is invisible to recovery —
   [checkpoint + tail] and the full history replay to the same store and
   version counters, for random committed batches under both schemes. *)
let prop_checkpoint_transparent =
  let batch_gen =
    QCheck.Gen.(
      list_size (int_bound 25)
        (pair (map (Printf.sprintf "k%d") (int_bound 8))
           (oneof [ map (fun v -> Some v) (int_bound 100); return None ])))
  in
  QCheck.Test.make ~name:"truncate-after-checkpoint is invisible to recovery"
    ~count:100
    (QCheck.make QCheck.Gen.(triple batch_gen batch_gen bool))
    (fun (b1, b2, use_undo_redo) ->
      let kind = if use_undo_redo then Scheme.Undo_redo else Scheme.No_undo in
      let run ~checkpoint =
        let t, _, log = make kind in
        let s1 = Scheme.begin_session t ~txn:1 ~version:1 in
        List.iter (fun (k, v) -> Scheme.write t s1 k v) b1;
        Scheme.commit t s1 ~final_version:1;
        Log.append log (Wal.Record.Advance_update 2);
        Log.append log (Wal.Record.Advance_query 1);
        if checkpoint then begin
          let store, _ = Recovery.replay log ~bound:3 () in
          Recovery.checkpoint log ~store ~u:2 ~q:1 ~g:(-1)
        end;
        let s2 = Scheme.begin_session t ~txn:2 ~version:2 in
        List.iter (fun (k, v) -> Scheme.write t s2 k v) b2;
        Scheme.commit t s2 ~final_version:2;
        let recovered, versions = Recovery.replay log ~bound:3 () in
        ( List.map
            (fun i ->
              let k = Printf.sprintf "k%d" i in
              (Store.read_le recovered k 9, Store.versions_of recovered k))
            [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ],
          ( versions.Recovery.update_version,
            versions.Recovery.query_version,
            versions.Recovery.collected_version ) )
      in
      run ~checkpoint:true = run ~checkpoint:false)

(* {1 Group commit} *)

module Disk = Wal.Disk
module Gc = Wal.Group_commit

(* An [on_force] hook that counts completed forces and the records they
   covered. *)
let force_counter () =
  let forces = ref 0 and records = ref 0 in
  let on_force ~records:n =
    incr forces;
    records := !records + n
  in
  (on_force, forces, records)

let test_group_commit_batch_release () =
  (* Four committers arrive inside one window: the first arms the flush
     timer, a single force covers everybody, and all four wake at the same
     instant (window + force latency). *)
  let engine = Sim.Engine.create () in
  let disk = Disk.create ~force_latency:1.0 () in
  let log : int Log.t = Log.create () in
  let on_force, forces, records = force_counter () in
  let gc = Gc.create ~engine ~disk ~log ~window:3.0 ~on_force () in
  let done_at = Array.make 4 nan in
  for i = 0 to 3 do
    Sim.Engine.schedule engine ~delay:(float_of_int i *. 0.5) (fun () ->
        Log.append log (Wal.Record.Advance_update (i + 2));
        Gc.sync gc;
        done_at.(i) <- Sim.Engine.now engine)
  done;
  Sim.Engine.run engine;
  check_int "one force for the whole batch" 1 !forces;
  check_int "all four records covered" 4 !records;
  Array.iter
    (fun t ->
      Alcotest.(check (float 1e-9)) "released at window + latency" 4.0 t)
    done_at

let test_group_commit_max_batch () =
  (* A full batch flushes early: with max_batch 2 the second arrival
     triggers the force long before the 50-unit window would expire. *)
  let engine = Sim.Engine.create () in
  let disk = Disk.create ~force_latency:1.0 () in
  let log : int Log.t = Log.create () in
  let on_force, forces, _ = force_counter () in
  let gc =
    Gc.create ~engine ~disk ~log ~window:50.0 ~max_batch:2 ~on_force ()
  in
  let done_at = Array.make 2 nan in
  for i = 0 to 1 do
    Sim.Engine.schedule engine ~delay:(float_of_int i) (fun () ->
        Log.append log (Wal.Record.Advance_update (i + 2));
        Gc.sync gc;
        done_at.(i) <- Sim.Engine.now engine)
  done;
  Sim.Engine.run engine;
  check_int "forced once, before the window expired" 1 !forces;
  Alcotest.(check (float 1e-9))
    "released at the second arrival + latency" 2.0 done_at.(0);
  Alcotest.(check (float 1e-9))
    "both released together" 2.0 done_at.(1)

let test_group_commit_bypass_is_synchronous () =
  (* Zero window and zero latency: sync completes inline, no time passes,
     and the durability model is reported inactive — the configuration the
     rest of the test suite runs under. *)
  let engine = Sim.Engine.create () in
  let disk = Disk.create () in
  let log : int Log.t = Log.create () in
  let gc = Gc.create ~engine ~disk ~log () in
  Alcotest.(check bool) "inactive at defaults" false (Gc.active gc);
  Sim.Engine.schedule engine ~delay:0.0 (fun () ->
      Log.append log (Wal.Record.Advance_update 2);
      Gc.sync gc;
      Alcotest.(check (float 0.0)) "no time passes" 0.0 (Sim.Engine.now engine);
      check_int "record durable immediately" 1 (Log.durable_length log));
  Sim.Engine.run engine;
  check_int "no waiters left" 0 (Gc.pending gc)

let test_group_commit_crash_fails_waiters () =
  (* A crash inside the window: the parked committer gets Crashed instead
     of an acknowledgement, nothing is forced, and the volatile tail is
     droppable. *)
  let engine = Sim.Engine.create () in
  let disk = Disk.create ~force_latency:1.0 () in
  let log : int Log.t = Log.create () in
  let on_force, forces, _ = force_counter () in
  let gc = Gc.create ~engine ~disk ~log ~window:5.0 ~on_force () in
  let outcome = ref `Pending in
  Sim.Engine.schedule engine ~delay:0.0 (fun () ->
      Log.append log (Wal.Record.Advance_update 2);
      match Gc.sync gc with
      | () -> outcome := `Acked
      | exception Gc.Crashed -> outcome := `Crashed);
  Sim.Engine.schedule engine ~delay:2.0 (fun () ->
      Gc.crash gc;
      check_int "volatile tail dropped" 1 (Log.drop_volatile log));
  Sim.Engine.run engine;
  Alcotest.(check bool) "waiter failed with Crashed" true (!outcome = `Crashed);
  check_int "nothing was forced" 0 !forces;
  check_int "log empty after dropping the tail" 0 (Log.length log)

let test_snapshot_roundtrip () =
  let s : int Store.t = Store.create ~bound:3 () in
  Store.write s "x" 0 1;
  Store.write s "x" 1 2;
  Store.delete s "y" 1;
  Store.write s "z" 2 3;
  let restored = Store.restore ~bound:3 (Store.snapshot s) in
  List.iter
    (fun k ->
      Alcotest.(check (list int))
        (k ^ " versions") (Store.versions_of s k) (Store.versions_of restored k);
      Alcotest.check vopt (k ^ " value") (Store.read_le s k 9)
        (Store.read_le restored k 9))
    [ "x"; "y"; "z" ]

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "wal"
    [
      ( "schemes",
        [
          Alcotest.test_case "write visibility" `Quick test_write_visibility;
          Alcotest.test_case "commit applies" `Quick
            (both_kinds test_commit_applies);
          Alcotest.test_case "abort erases" `Quick (both_kinds test_abort_erases);
          Alcotest.test_case "abort restores overwrite" `Quick
            test_abort_restores_overwrite;
        ] );
      ( "move_to_future",
        [
          Alcotest.test_case "no-undo trivial" `Quick test_mtf_no_undo_trivial;
          Alcotest.test_case "undo-redo moves updates" `Quick
            test_mtf_undo_redo_moves_updates;
          Alcotest.test_case "undo-redo restores overwritten" `Quick
            test_mtf_undo_redo_restores_overwritten;
          Alcotest.test_case "mtf then abort" `Quick test_mtf_then_abort;
          Alcotest.test_case "no-op when not ahead" `Quick
            (both_kinds test_mtf_noop_when_not_ahead);
        ] );
      ( "checkpointing",
        [
          Alcotest.test_case "checkpoint replay equivalence" `Quick
            (both_kinds test_checkpoint_replay_equivalence);
          Alcotest.test_case "discards pre-history" `Quick
            test_checkpoint_discards_pre_history;
          Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "replays committed only" `Quick
            (both_kinds test_recovery_replays_committed);
          Alcotest.test_case "applies at final version" `Quick
            (both_kinds test_recovery_applies_final_version);
          Alcotest.test_case "replays advancement records" `Quick
            test_recovery_replays_advancement;
          Alcotest.test_case "replays gc renumbering" `Quick
            test_recovery_gc_renumbering;
        ] );
      ( "group commit",
        [
          Alcotest.test_case "one force releases the batch" `Quick
            test_group_commit_batch_release;
          Alcotest.test_case "full batch flushes early" `Quick
            test_group_commit_max_batch;
          Alcotest.test_case "bypass is synchronous" `Quick
            test_group_commit_bypass_is_synchronous;
          Alcotest.test_case "crash fails parked waiters" `Quick
            test_group_commit_crash_fails_waiters;
        ] );
      ( "properties",
        qc
          [
            prop_schemes_agree;
            prop_abort_is_identity;
            prop_checkpoint_transparent;
          ] );
    ]
