(** In-memory hash join over row lists.

    Both operators emit the same pairs in the same order — ascending by
    build row ([compare_build]), then by probe row ([compare_probe]) — so a
    hash join over index-probe inputs, a hash join over full-scan inputs,
    and the nested-loop reference are byte-identical whenever their inputs
    hold the same rows, in any order: the property the indexed-vs-full-scan
    equivalence oracle checks end to end. *)

val hash_join :
  compare_build:('a -> 'a -> int) ->
  compare_probe:('b -> 'b -> int) ->
  build:'a list ->
  probe:'b list ->
  build_key:('a -> string) ->
  probe_key:('b -> string) ->
  ('a * 'b) list
(** Sort each side once, hash the probe side by join key into buckets that
    keep its order, and walk the sorted build side against them: the
    matched pairs come out in order, and none is sorted. *)

val nested_loop :
  compare_build:('a -> 'a -> int) ->
  compare_probe:('b -> 'b -> int) ->
  build:'a list ->
  probe:'b list ->
  build_key:('a -> string) ->
  probe_key:('b -> string) ->
  ('a * 'b) list
(** O(|build| × |probe|) reference implementation with identical output:
    every matching pair, sorted. *)
