(* In-memory hash join that emits its pairs in order.  Each side is sorted
   once with its own row comparison; the probe side goes into a hash table
   by join key whose buckets keep that order, and the build side is walked
   in order against it.  So the output is ordered by (build row, probe row)
   without sorting any matched pair, and it depends only on the input rows,
   not on their order — whether they came from index probes or full scans,
   which is what the indexed-vs-full equivalence oracle relies on. *)

let nested_loop ~compare_build ~compare_probe ~build ~probe ~build_key
    ~probe_key =
  List.concat_map
    (fun b ->
      List.filter_map
        (fun p -> if String.equal (build_key b) (probe_key p) then Some (b, p) else None)
        probe)
    build
  |> List.sort (fun (b, p) (b', p') ->
         match compare_build b b' with 0 -> compare_probe p p' | c -> c)

let hash_join ~compare_build ~compare_probe ~build ~probe ~build_key
    ~probe_key =
  (* Buckets hold their probe rows descending, so that walking the build
     side descending and consing each bucket front to back leaves the
     pairs ascending.  Rows that compare equal keep their input order, as
     in [nested_loop]'s stable sort. *)
  let buckets = Hashtbl.create 64 in
  List.iter
    (fun p ->
      let k = probe_key p in
      let rows = Option.value (Hashtbl.find_opt buckets k) ~default:[] in
      Hashtbl.replace buckets k (p :: rows))
    (List.sort compare_probe probe);
  List.fold_left
    (fun out b ->
      match Hashtbl.find_opt buckets (build_key b) with
      | None -> out
      | Some rows -> List.fold_left (fun out p -> (b, p) :: out) out rows)
    []
    (List.rev (List.sort compare_build build))
