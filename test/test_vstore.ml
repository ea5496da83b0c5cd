(* Tests for the versioned storage engine, including the Phase-3 GC rules. *)

module Store = Vstore.Store

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let vopt = Alcotest.(option int)

let test_write_read () =
  let s : int Store.t = Store.create ~bound:3 () in
  Store.write s "x" 0 10;
  check_bool "exists in 0" true (Store.exists_in s "x" 0);
  check_bool "not in 1" false (Store.exists_in s "x" 1);
  Alcotest.check vopt "read_le 0" (Some 10) (Store.read_le s "x" 0);
  Alcotest.check vopt "read_le 5 sees v0" (Some 10) (Store.read_le s "x" 5);
  Alcotest.check vopt "unknown item" None (Store.read_le s "y" 5)

let test_version_visibility () =
  let s : int Store.t = Store.create ~bound:3 () in
  Store.write s "x" 0 10;
  Store.write s "x" 1 11;
  Store.write s "x" 2 12;
  Alcotest.check vopt "v0" (Some 10) (Store.read_le s "x" 0);
  Alcotest.check vopt "v1" (Some 11) (Store.read_le s "x" 1);
  Alcotest.check vopt "v2" (Some 12) (Store.read_le s "x" 2);
  Alcotest.check vopt "v9" (Some 12) (Store.read_le s "x" 9);
  check_int "maxV" 2 (Option.get (Store.max_version s "x"));
  Alcotest.(check (list int)) "versions" [ 0; 1; 2 ] (Store.versions_of s "x")

let test_bound_enforced () =
  let s : int Store.t = Store.create ~bound:3 () in
  Store.write s "x" 0 0;
  Store.write s "x" 1 1;
  Store.write s "x" 2 2;
  check_int "high water" 3 (Store.high_water_versions s);
  Alcotest.check_raises "fourth version rejected"
    (Store.Version_bound_exceeded { key = "x"; versions = [ 0; 1; 2; 3 ] })
    (fun () -> Store.write s "x" 3 3)

let test_unbounded () =
  let s : int Store.t = Store.create () in
  for v = 0 to 99 do
    Store.write s "x" v v
  done;
  check_int "100 versions" 100 (Store.live_versions s "x");
  check_int "high water" 100 (Store.high_water_versions s)

let test_overwrite_same_version () =
  let s : int Store.t = Store.create ~bound:3 () in
  Store.write s "x" 1 10;
  Store.write s "x" 1 20;
  check_int "still one version" 1 (Store.live_versions s "x");
  Alcotest.check vopt "latest value" (Some 20) (Store.read_le s "x" 1)

let test_tombstone_visibility () =
  let s : int Store.t = Store.create ~bound:3 () in
  Store.write s "x" 0 10;
  Store.delete s "x" 1;
  Alcotest.check vopt "old version still readable" (Some 10)
    (Store.read_le s "x" 0);
  Alcotest.check vopt "deleted as of v1" None (Store.read_le s "x" 1);
  check_bool "tombstone exists_in" true (Store.exists_in s "x" 1)

let test_lone_tombstone_kept_until_gc () =
  (* Tombstones persist at delete time (uncommitted transactions may still
     reference them); garbage collection removes fully-deleted items. *)
  let s : int Store.t = Store.create ~bound:3 () in
  Store.delete s "x" 1;
  check_int "tombstone retained" 1 (Store.live_versions s "x");
  Alcotest.check vopt "reads as absent" None (Store.read_le s "x" 5);
  Store.write s "y" 1 5;
  Store.delete s "y" 1;
  check_int "tombstone overwrites value" 1 (Store.live_versions s "y");
  Store.gc s ~collect:1 ~query:2;
  check_int "gc removes deleted items" 0 (Store.item_count s)

let test_copy_forward () =
  let s : int Store.t = Store.create ~bound:3 () in
  Store.write s "x" 0 10;
  Store.copy_forward s "x" ~src:0 ~dst:2;
  Alcotest.check vopt "copied value" (Some 10) (Store.read_exact s "x" 2);
  Alcotest.check_raises "copy of missing source" Not_found (fun () ->
      Store.copy_forward s "z" ~src:0 ~dst:1)

let test_remove_version () =
  let s : int Store.t = Store.create ~bound:3 () in
  Store.write s "x" 0 10;
  Store.write s "x" 1 11;
  Store.remove_version s "x" 1;
  check_int "one left" 1 (Store.live_versions s "x");
  Alcotest.check vopt "v1 read falls back" (Some 10) (Store.read_le s "x" 1);
  Store.remove_version s "x" 7 (* absent version: no-op *);
  check_int "still one" 1 (Store.live_versions s "x")

(* Phase-3 GC: item exists in the query version -> the collected version is
   dropped. *)
let test_gc_drops_collected () =
  let s : int Store.t = Store.create ~bound:3 () in
  Store.write s "x" 0 10;
  Store.write s "x" 1 11;
  Store.gc s ~collect:0 ~query:1;
  Alcotest.(check (list int)) "only v1 remains" [ 1 ] (Store.versions_of s "x");
  Alcotest.check vopt "v1 value intact" (Some 11) (Store.read_le s "x" 1)

(* Phase-3 GC: item absent from the query version -> its old entry is
   renumbered to the query version. *)
let test_gc_renumbers () =
  let s : int Store.t = Store.create ~bound:3 () in
  Store.write s "x" 0 10;
  Store.gc s ~collect:0 ~query:1;
  Alcotest.(check (list int)) "renumbered to 1" [ 1 ] (Store.versions_of s "x");
  Alcotest.check vopt "value preserved" (Some 10) (Store.read_le s "x" 1);
  Alcotest.check vopt "old version gone" None (Store.read_le s "x" 0)

let test_gc_removes_deleted_items () =
  let s : int Store.t = Store.create ~bound:3 () in
  Store.write s "x" 0 10;
  Store.delete s "x" 1;
  Store.gc s ~collect:0 ~query:1;
  check_int "deleted item fully removed" 0 (Store.item_count s)

let test_gc_preserves_newer () =
  let s : int Store.t = Store.create ~bound:3 () in
  Store.write s "x" 0 10;
  Store.write s "x" 2 12;
  (* x does not exist in version 1 (the query version): renumber v0 -> v1,
     keep v2 untouched. *)
  Store.gc s ~collect:0 ~query:1;
  Alcotest.(check (list int)) "v1 and v2" [ 1; 2 ] (Store.versions_of s "x");
  Alcotest.check vopt "renumbered" (Some 10) (Store.read_le s "x" 1);
  Alcotest.check vopt "newest" (Some 12) (Store.read_le s "x" 2)

(* Regression (found by test_recovery_fuzz): the gc drop-path guard must
   treat any entry strictly between [collect] and [query] as the query
   reader's target — not only an entry at exactly [query].  Renumbering
   the stale v0 entry up to the query version would shadow the newer
   v2. *)
let test_gc_skipped_query_keeps_newest () =
  let s : int Store.t = Store.create ~bound:3 () in
  Store.write s "x" 0 10;
  Store.write s "x" 2 12;
  Store.gc s ~collect:1 ~query:3;
  Alcotest.(check (list int)) "stale entry dropped" [ 2 ]
    (Store.versions_of s "x");
  Alcotest.check vopt "query reader sees the newer value" (Some 12)
    (Store.read_le s "x" 3)

(* The item representation keeps three versions in inline slots and spills
   older entries to a list; a bound above the slot capacity exercises the
   spill path before the bound trips. *)
let test_slot_overflow_bound () =
  let s : int Store.t = Store.create ~bound:5 () in
  for v = 0 to 4 do
    Store.write s "x" v v
  done;
  check_int "five live versions (slots + spill)" 5 (Store.live_versions s "x");
  Alcotest.(check (list int))
    "all versions ascending" [ 0; 1; 2; 3; 4 ] (Store.versions_of s "x");
  Alcotest.check vopt "oldest (spilled) readable" (Some 0)
    (Store.read_exact s "x" 0);
  Alcotest.check_raises "sixth version rejected"
    (Store.Version_bound_exceeded { key = "x"; versions = [ 0; 1; 2; 3; 4; 5 ] })
    (fun () -> Store.write s "x" 5 5)

let test_range_lo_eq_hi () =
  let s : int Store.t = Store.create ~bound:3 () in
  List.iter (fun (k, v) -> Store.write s k 0 v) [ ("a", 1); ("b", 2); ("c", 3) ];
  Alcotest.(check (list (pair string int)))
    "lo = hi hits exactly that key" [ ("b", 2) ]
    (Store.range s ~lo:"b" ~hi:"b" 0);
  Alcotest.(check (list (pair string int)))
    "lo = hi on absent key" []
    (Store.range s ~lo:"bb" ~hi:"bb" 0)

let test_range_across_tombstones () =
  let s : int Store.t = Store.create ~bound:3 () in
  List.iter (fun (k, v) -> Store.write s k 0 v)
    [ ("a", 1); ("b", 2); ("c", 3); ("d", 4) ];
  Store.delete s "b" 1;
  Store.delete s "c" 1;
  Alcotest.(check (list (pair string int)))
    "tombstoned keys skipped, neighbours kept" [ ("a", 1); ("d", 4) ]
    (Store.range s ~lo:"a" ~hi:"d" 1);
  Alcotest.(check (list (pair string int)))
    "v0 still sees the full row" [ ("a", 1); ("b", 2); ("c", 3); ("d", 4) ]
    (Store.range s ~lo:"a" ~hi:"d" 0);
  Alcotest.(check (list (pair string int)))
    "range of only tombstones is empty" []
    (Store.range s ~lo:"b" ~hi:"c" 1)

(* The histogram must not depend on whether entries live in the inline
   slots (bounded store) or partly in the spill list (unbounded store). *)
let test_histogram_slot_vs_list () =
  let fill (s : int Store.t) =
    Store.write s "a" 0 1;
    Store.write s "b" 0 1;
    Store.write s "b" 1 2;
    Store.write s "c" 0 1;
    Store.write s "c" 1 2;
    Store.write s "c" 2 3
  in
  let bounded : int Store.t = Store.create ~bound:3 () in
  let unbounded : int Store.t = Store.create () in
  fill bounded;
  fill unbounded;
  Alcotest.(check (list (pair int int)))
    "same histogram for both representations"
    (Store.version_histogram bounded)
    (Store.version_histogram unbounded);
  (* Deep chains count spilled entries too. *)
  for v = 3 to 9 do
    Store.write unbounded "c" v (v + 1)
  done;
  Alcotest.(check (list (pair int int)))
    "spilled entries counted" [ (1, 1); (2, 1); (10, 1) ]
    (Store.version_histogram unbounded)

let test_histogram () =
  let s : int Store.t = Store.create ~bound:3 () in
  Store.write s "a" 0 1;
  Store.write s "b" 0 1;
  Store.write s "b" 1 2;
  Alcotest.(check (list (pair int int)))
    "histogram" [ (1, 1); (2, 1) ] (Store.version_histogram s)


let test_range_basic () =
  let s : int Store.t = Store.create ~bound:3 () in
  List.iter (fun (k, v) -> Store.write s k 0 v)
    [ ("b", 2); ("a", 1); ("d", 4); ("c", 3); ("f", 6) ];
  Alcotest.(check (list (pair string int)))
    "ordered inclusive range"
    [ ("b", 2); ("c", 3); ("d", 4) ]
    (Store.range s ~lo:"b" ~hi:"d" 0);
  Alcotest.(check (list (pair string int)))
    "open-ended bounds match nothing extra"
    [ ("a", 1) ]
    (Store.range s ~lo:"" ~hi:"a" 0);
  Alcotest.(check (list (pair string int))) "empty range" []
    (Store.range s ~lo:"x" ~hi:"z" 0);
  Alcotest.(check (list (pair string int))) "inverted range" []
    (Store.range s ~lo:"d" ~hi:"b" 0)

(* [iter] walks the keys in [range]'s order, each with its live entries
   oldest first (the index bootstraps through it). *)
let test_iter_ordered () =
  let s : int Store.t = Store.create ~bound:3 () in
  List.iter (fun (k, v) -> Store.write s k 0 v)
    [ ("b", 2); ("a", 1); ("d", 4); ("c", 3) ];
  Store.write s "b" 1 20;
  Store.delete s "c" 1;
  let seen = ref [] in
  Store.iter (fun k entries -> seen := (k, entries) :: !seen) s;
  Alcotest.(check (list string))
    "ascending keys" [ "a"; "b"; "c"; "d" ]
    (List.rev_map fst !seen);
  Alcotest.(check bool)
    "entries oldest first" true
    (List.assoc "b" !seen = [ (0, `Value); (1, `Value) ]
    && List.assoc "c" !seen = [ (0, `Value); (1, `Tombstone) ])

let test_range_versions () =
  let s : int Store.t = Store.create ~bound:3 () in
  Store.write s "a" 0 1;
  Store.write s "b" 0 2;
  Store.write s "b" 1 20;
  Store.delete s "a" 1;
  (* At version 0: both original; at version 1: a deleted, b updated. *)
  Alcotest.(check (list (pair string int)))
    "v0 snapshot" [ ("a", 1); ("b", 2) ]
    (Store.range s ~lo:"a" ~hi:"z" 0);
  Alcotest.(check (list (pair string int)))
    "v1 snapshot" [ ("b", 20) ]
    (Store.range s ~lo:"a" ~hi:"z" 1)

let test_range_after_gc () =
  let s : int Store.t = Store.create ~bound:3 () in
  Store.write s "a" 0 1;
  Store.write s "b" 1 2;
  Store.gc s ~collect:0 ~query:1;
  Alcotest.(check (list (pair string int)))
    "renumbered entries still scannable" [ ("a", 1); ("b", 2) ]
    (Store.range s ~lo:"a" ~hi:"z" 1)

(* A range read at the query version straddling a GC round is unchanged by
   the round, whichever rule ran: the paper's renumbering rule moves
   untouched items' entries up to [query], the in-place rule leaves them
   where readers resolve to them anyway.  Both rules must agree with the
   pre-GC snapshot and with each other — the read-equivalence the index's
   visibility contract leans on. *)
let test_range_gc_straddle_both_rules () =
  let build gc_renumber =
    let s : int Store.t = Store.create ~bound:3 ~gc_renumber () in
    Store.write s "hot" 0 10;
    Store.write s "hot" 2 12;
    (* updated above [collect] *)
    Store.write s "old" 0 20;
    (* untouched since v0 — the rules diverge mechanically here *)
    Store.write s "dead" 0 30;
    Store.delete s "dead" 2;
    (* deleted above [collect] *)
    s
  in
  let expected = [ ("hot", 12); ("old", 20) ] in
  List.iter
    (fun gc_renumber ->
      let name fmt =
        Printf.sprintf "%s (gc_renumber %b)" fmt gc_renumber
      in
      let s = build gc_renumber in
      let before = Store.range s ~lo:"" ~hi:"~" 2 in
      Store.gc s ~collect:1 ~query:2;
      Alcotest.(check (list (pair string int)))
        (name "range at query version") expected
        (Store.range s ~lo:"" ~hi:"~" 2);
      Alcotest.(check (list (pair string int)))
        (name "GC is read-invisible at the query version")
        before
        (Store.range s ~lo:"" ~hi:"~" 2);
      Alcotest.(check (list (pair string int)))
        (name "equal bounds on a straddling key")
        [ ("old", 20) ]
        (Store.range s ~lo:"old" ~hi:"old" 2);
      Alcotest.(check (list (pair string int)))
        (name "equal bounds on the deleted key") []
        (Store.range s ~lo:"dead" ~hi:"dead" 2);
      Alcotest.(check (list (pair string int)))
        (name "empty range untouched by GC") []
        (Store.range s ~lo:"x" ~hi:"q" 2);
      (* The mechanical difference between the rules, for the record:
         renumbering moves the untouched item's entry to [query], in-place
         leaves it at its original version. *)
      Alcotest.(check (list int))
        (name "surviving versions of the untouched item")
        (if gc_renumber then [ 2 ] else [ 0 ])
        (Store.versions_of s "old"))
    [ true; false ]

(* Properties *)

let key_gen = QCheck.Gen.(map (Printf.sprintf "k%d") (int_bound 20))

let ops_gen =
  QCheck.Gen.(
    list_size (int_bound 200)
      (oneof
         [
           map2 (fun k v -> `Write (k, v)) key_gen (int_bound 1000);
           map (fun k -> `Delete k) key_gen;
         ]))

let arbitrary_ops = QCheck.make ops_gen

(* After any sequence of single-version writes followed by repeated rounds
   of (write at v+1; gc v), the number of live versions never exceeds 2. *)
let prop_gc_keeps_two_versions =
  QCheck.Test.make ~name:"gc keeps at most two live versions" ~count:100
    arbitrary_ops (fun ops ->
      let s : int Store.t = Store.create ~bound:3 () in
      let apply v = function
        | `Write (k, value) -> Store.write s k v value
        | `Delete k -> Store.delete s k v
      in
      List.iter (apply 0) ops;
      let ok = ref true in
      for round = 1 to 4 do
        List.iter (apply round) ops;
        Store.gc s ~collect:(round - 1) ~query:round;
        if Store.max_live_versions_now s > 2 then ok := false
      done;
      !ok)

(* read_le after gc returns the same values as read_le before gc at the
   query version: garbage collection is invisible to readers of the
   surviving snapshot. *)
let prop_gc_preserves_query_snapshot =
  QCheck.Test.make ~name:"gc preserves the query-version snapshot" ~count:100
    arbitrary_ops (fun ops ->
      let s : int Store.t = Store.create () in
      let keys = List.map (function `Write (k, _) | `Delete k -> k) ops in
      List.iter
        (fun op ->
          match op with
          | `Write (k, v) -> Store.write s k 0 v
          | `Delete k -> Store.delete s k 0)
        ops;
      (* A few version-1 writes on alternating keys. *)
      List.iteri (fun i k -> if i mod 3 = 0 then Store.write s k 1 (i * 7)) keys;
      let before = List.map (fun k -> (k, Store.read_le s k 1)) keys in
      Store.gc s ~collect:0 ~query:1;
      let after = List.map (fun k -> (k, Store.read_le s k 1)) keys in
      before = after)

(* The items [Store.gc s ~collect ~query] must visit, counted from the
   items themselves: those with an entry at or below [collect] under the
   renumbering rule, at [collect] or [query] under the in-place rule. *)
let gc_candidates s ~gc_renumber ~collect ~query =
  let n = ref 0 in
  Store.iter
    (fun _ entries ->
      if
        List.exists
          (fun (v, _) ->
            if gc_renumber then v <= collect else v = collect || v = query)
          entries
      then incr n)
    s;
  !n

(* Collect, and say whether gc visited exactly its candidates. *)
let gc_visits_candidates s ~gc_renumber ~collect ~query =
  let candidates = gc_candidates s ~gc_renumber ~collect ~query in
  let visited = Store.gc_items_visited s in
  Store.gc s ~collect ~query;
  Store.gc_items_visited s - visited = candidates

(* The version index stays consistent with the items under arbitrary
   write/delete/remove_version interleavings.  Its reader is gc, so each
   collection — one every 17 operations and a last one at the end — must
   visit exactly the items with an entry at the versions it collects
   from, recounted from the ground truth. *)
let prop_version_index_consistent gc_renumber =
  let op_gen =
    QCheck.Gen.(
      list_size (int_bound 150)
        (pair key_gen (oneof [ return `W; return `D; return `R ])))
  in
  QCheck.Test.make
    ~name:
      ("version index matches item entries"
      ^ if gc_renumber then "" else " (in place)")
    ~count:100 ~long_factor:10 (QCheck.make op_gen) (fun ops ->
      let s : int Store.t = Store.create ~gc_renumber () in
      let version = ref 0 and ok = ref true in
      let collect () =
        if
          not
            (gc_visits_candidates s ~gc_renumber ~collect:!version
               ~query:(!version + 1))
        then ok := false;
        incr version
      in
      List.iteri
        (fun i (k, op) ->
          (match op with
          | `W -> Store.write s k !version i
          | `D -> Store.delete s k !version
          | `R -> Store.remove_version s k !version);
          if i mod 17 = 16 then collect ())
        ops;
      collect ();
      !ok)

(* gc visits exactly the items its rule names ({!gc_candidates}), counted
   just before the call.  The histories leave the version index stale and
   repeated handles to skip: entries removed by remove_version and written
   again, items removed as lone tombstones and their keys written again,
   entries dropped by earlier rounds. *)
let prop_gc_visits_candidates gc_renumber =
  let op_gen =
    QCheck.Gen.(
      list_size (int_bound 200)
        (triple key_gen (int_bound 2)
           (frequency
              [
                (5, return `W); (2, return `D); (2, return `R); (2, return `A);
              ])))
  in
  QCheck.Test.make
    ~name:
      ("gc visits exactly its candidates"
      ^ if gc_renumber then "" else " (in place)")
    ~count:100 ~long_factor:10 (QCheck.make op_gen) (fun ops ->
      let s : int Store.t = Store.create ~gc_renumber () in
      let u = ref 1 and q = ref 0 and g = ref (-1) in
      List.for_all
        (fun (k, skip, op) ->
          match op with
          | `W ->
              Store.write s k !u skip;
              true
          | `D ->
              Store.delete s k !u;
              true
          | `R ->
              Store.remove_version s k (!u - skip);
              true
          | `A ->
              u := !u + 1 + skip;
              q := !u - 1;
              !q - 1 <= !g
              ||
              (incr g;
               gc_visits_candidates s ~gc_renumber ~collect:!g ~query:!q))
        ops)

(* The version index must not grow with the history: a long run over a
   few keys keeps the store's footprint under a fixed bound, whichever
   collector runs — gc under either rule, or prune_below in the MVCC
   baseline's shape, where every write makes a new version.  Each round
   also removes an entry and deletes a key, leaving handles stale. *)
let test_index_memory_bounded () =
  let keys = Array.init 32 (Printf.sprintf "k%02d") in
  let words_bound = 8_192 in
  List.iter
    (fun collector ->
      let s : int Store.t =
        Store.create ~gc_renumber:(collector = `Gc_renumber) ()
      in
      let peak = ref 0 in
      let next = ref 0 in
      for round = 1 to 20_000 do
        let key i = keys.((round * (2 * i + 1)) land 31) in
        (match collector with
        | `Prune ->
            for i = 0 to 2 do
              incr next;
              Store.write s (key i) !next round
            done;
            incr next;
            Store.delete s (key 3) !next;
            (* key 1 was written at [!next - 2]. *)
            Store.remove_version s (key 1) (!next - 2);
            Store.prune_below s ~keep:(!next - 4)
        | `Gc_renumber | `Gc_in_place ->
            (* Round [round]: updates at [round + 1], queries at
               [round], [round - 1] collected. *)
            for i = 0 to 2 do
              Store.write s (key i) (round + 1) round
            done;
            Store.delete s (key 3) (round + 1);
            Store.remove_version s (key 1) (round + 1);
            Store.gc s ~collect:(round - 1) ~query:round);
        if round mod 1000 = 0 then
          peak := max !peak (Obj.reachable_words (Obj.repr s))
      done;
      if !peak > words_bound then
        Alcotest.failf "%s: the store reached %d words (bound %d)"
          (match collector with
          | `Gc_renumber -> "gc, renumbering"
          | `Gc_in_place -> "gc, in place"
          | `Prune -> "prune_below")
          !peak words_bound)
    [ `Gc_renumber; `Gc_in_place; `Prune ]

(* The in-place GC rule is read-equivalent to the paper's renumbering rule:
   after any protocol-shaped history (writes at the current update version,
   one GC per round), read_le agrees at every version >= the query
   version. *)
let prop_gc_rules_read_equivalent =
  let op_gen =
    QCheck.Gen.(
      list_size (int_bound 120)
        (pair key_gen (oneof [ return `W; return `D ])))
  in
  QCheck.Test.make ~name:"renumber and in-place gc are read-equivalent"
    ~count:100 (QCheck.make op_gen) (fun ops ->
      let run renumber =
        let s : int Store.t = Store.create ~gc_renumber:renumber () in
        let u = ref 1 in
        List.iteri
          (fun i (k, op) ->
            (match op with
            | `W -> Store.write s k !u i
            | `D -> Store.delete s k !u);
            if i mod 13 = 12 then begin
              (* One advancement round: updates move to !u + 1, version
                 !u - 1 is collected with query version !u. *)
              Store.gc s ~collect:(!u - 1) ~query:!u;
              incr u
            end)
          ops;
        let keys = List.sort_uniq compare (List.map fst ops) in
        List.map (fun k -> (k, Store.read_le s k !u, Store.read_le s k max_int)) keys
      in
      run true = run false)

(* Under a protocol-shaped history — writes at the current update version,
   advancement rounds that may skip versions, collection trailing behind —
   the store's read_le at or above the query version always agrees with a
   naive model that never garbage-collects anything. *)
let prop_store_matches_reference =
  let op_gen =
    QCheck.Gen.(
      list_size (int_bound 200)
        (triple key_gen (int_bound 2)
           (frequency [ (5, return `W); (2, return `D); (2, return `G) ])))
  in
  QCheck.Test.make ~name:"store agrees with a gc-free reference model"
    ~count:100 (QCheck.make op_gen) (fun ops ->
      let s : int Store.t = Store.create () in
      let model : (string, (int * int option) list) Hashtbl.t =
        Hashtbl.create 16
      in
      let record k v value =
        Hashtbl.replace model k
          ((v, value) :: Option.value (Hashtbl.find_opt model k) ~default:[])
      in
      let model_read_le k v =
        (* Newest write at the highest version <= v; the entry list is in
           reverse write order, so on a version tie the first hit wins. *)
        List.fold_left
          (fun acc (ev, value) ->
            if ev > v then acc
            else
              match acc with
              | Some (bv, _) when bv >= ev -> acc
              | _ -> Some (ev, value))
          None
          (Option.value (Hashtbl.find_opt model k) ~default:[])
        |> Option.map snd |> Option.join
      in
      let u = ref 1 and q = ref 0 and g = ref (-1) in
      let next = ref 0 in
      let ok = ref true in
      let agree k v = Store.read_le s k v = model_read_le k v in
      List.iter
        (fun (k, skip, op) ->
          (match op with
          | `W ->
              incr next;
              Store.write s k !u !next;
              record k !u (Some !next)
          | `D ->
              Store.delete s k !u;
              record k !u None
          | `G ->
              (* One advancement round; [skip] > 0 makes the query version
                 jump past unwritten versions — the shape that once tricked
                 the renumbering rule into shadowing a newer entry. *)
              u := !u + 1 + skip;
              q := !u - 1;
              if !q - 1 > !g then begin
                incr g;
                Store.gc s ~collect:!g ~query:!q
              end);
          if not (agree k !q && agree k !u && agree k max_int) then ok := false)
        ops;
      !ok)

(* Reference models of gc and prune_below over one item's entries,
   (version, value-or-tombstone) pairs ascending, straight from the
   documented rules; [None] means the item is removed.  An item left with
   no entries or a lone tombstone is removed. *)
let settle = function [] | [ (_, None) ] -> None | entries -> Some entries

let gc_model ~renumber ~collect ~query entries =
  let newer = List.filter (fun (v, _) -> v > collect) entries in
  let below = List.filter (fun (v, _) -> v <= collect) entries in
  settle
    (if List.exists (fun (v, _) -> v <= query) newer then newer
     else
       match List.rev below with
       | [] -> entries
       | (_, body) :: _ when renumber -> List.sort compare ((query, body) :: newer)
       | newest :: _ -> newest :: newer)

let prune_model ~keep entries =
  match List.rev (List.filter (fun (v, _) -> v <= keep) entries) with
  | [] -> settle entries
  | (newest, _) :: _ -> settle (List.filter (fun (v, _) -> v >= newest) entries)

(* gc and prune_below against the models, and their listener contract:
   under a protocol-shaped history, each call notifies exactly once for
   every item whose live entries it changed — removal included — and never
   for an item it left as it was.  Each history runs three times:
   collected by gc under either rule, and pruned MVCC-style at every
   advancement instead.  gc visits only the items its rule selects (an
   entry at or below [collect] for renumbering, at [collect] or [query] in
   place); the model leaves the rest as they are. *)
let prop_collectors_match_models =
  let op_gen =
    QCheck.Gen.(
      list_size (int_bound 200)
        (triple key_gen (int_bound 2)
           (frequency [ (5, return `W); (2, return `D); (2, return `A) ])))
  in
  QCheck.Test.make ~name:"gc and prune match their models, notify changes"
    ~count:100 (QCheck.make op_gen) (fun ops ->
      List.for_all
        (fun collector ->
          let renumber = collector = `Gc_renumber in
          let s : int Store.t = Store.create ~gc_renumber:renumber () in
          let contents () = Store.snapshot s in
          let collects model f =
            let before = contents () in
            let fired = ref [] in
            Store.set_listener s (Some (fun k -> fired := k :: !fired));
            f ();
            Store.set_listener s None;
            let after = contents () in
            let changed =
              List.filter
                (fun (k, entries) -> List.assoc_opt k after <> Some entries)
                before
              |> List.map fst
            in
            after = List.filter_map
                      (fun (k, entries) ->
                        Option.map (fun e -> (k, e)) (model entries))
                      before
            && List.sort compare !fired = changed
          in
          let u = ref 1 and q = ref 0 and g = ref (-1) and next = ref 0 in
          List.for_all
            (fun (k, skip, op) ->
              match op with
              | `W ->
                  incr next;
                  Store.write s k !u !next;
                  true
              | `D ->
                  Store.delete s k !u;
                  true
              | `A when collector = `Prune ->
                  u := !u + 1 + skip;
                  q := !u - 1;
                  let keep = !q in
                  collects (prune_model ~keep) (fun () ->
                      Store.prune_below s ~keep)
              | `A ->
                  u := !u + 1 + skip;
                  q := !u - 1;
                  !q - 1 <= !g
                  ||
                  (incr g;
                   let collect = !g and query = !q in
                   let selected entries =
                     List.exists
                       (fun (v, _) ->
                         if renumber then v <= collect
                         else v = collect || v = query)
                       entries
                   in
                   collects
                     (fun entries ->
                       if selected entries then
                         gc_model ~renumber ~collect ~query entries
                       else Some entries)
                     (fun () -> Store.gc s ~collect ~query)))
            ops)
        [ `Gc_renumber; `Gc_in_place; `Prune ])

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "vstore"
    [
      ( "basics",
        [
          Alcotest.test_case "write and read" `Quick test_write_read;
          Alcotest.test_case "version visibility" `Quick test_version_visibility;
          Alcotest.test_case "bound enforced" `Quick test_bound_enforced;
          Alcotest.test_case "unbounded mode" `Quick test_unbounded;
          Alcotest.test_case "overwrite same version" `Quick
            test_overwrite_same_version;
        ] );
      ( "deletion",
        [
          Alcotest.test_case "tombstone visibility" `Quick
            test_tombstone_visibility;
          Alcotest.test_case "lone tombstone kept until gc" `Quick
            test_lone_tombstone_kept_until_gc;
        ] );
      ( "versions",
        [
          Alcotest.test_case "copy forward" `Quick test_copy_forward;
          Alcotest.test_case "remove version" `Quick test_remove_version;
          Alcotest.test_case "slot overflow bound" `Quick
            test_slot_overflow_bound;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "histogram slot vs list" `Quick
            test_histogram_slot_vs_list;
          Alcotest.test_case "range basic" `Quick test_range_basic;
          Alcotest.test_case "range lo = hi" `Quick test_range_lo_eq_hi;
          Alcotest.test_case "range across tombstones" `Quick
            test_range_across_tombstones;
          Alcotest.test_case "range versions" `Quick test_range_versions;
          Alcotest.test_case "iter in key order" `Quick test_iter_ordered;
          Alcotest.test_case "range after gc" `Quick test_range_after_gc;
          Alcotest.test_case "range straddling gc, both rules" `Quick
            test_range_gc_straddle_both_rules;
        ] );
      ( "gc",
        [
          Alcotest.test_case "drops collected" `Quick test_gc_drops_collected;
          Alcotest.test_case "renumbers survivors" `Quick test_gc_renumbers;
          Alcotest.test_case "removes deleted items" `Quick
            test_gc_removes_deleted_items;
          Alcotest.test_case "preserves newer versions" `Quick
            test_gc_preserves_newer;
          Alcotest.test_case "skipped query keeps newest" `Quick
            test_gc_skipped_query_keeps_newest;
          Alcotest.test_case "version index stays bounded" `Quick
            test_index_memory_bounded;
        ] );
      ( "properties",
        qc
          [
            prop_gc_keeps_two_versions;
            prop_gc_preserves_query_snapshot;
            prop_version_index_consistent true;
            prop_version_index_consistent false;
            prop_gc_visits_candidates true;
            prop_gc_visits_candidates false;
            prop_gc_rules_read_equivalent;
            prop_store_matches_reference;
            prop_collectors_match_models;
          ] );
    ]

