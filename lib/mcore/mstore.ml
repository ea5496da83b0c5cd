(* Domain-safe three-version store: the inline three-slot representation
   from lib/vstore, adapted for shared-memory parallelism by striping
   keys over latched buckets.  Each bucket holds its own Vstore.Store
   (same slot rotation, version index, bound checking, and GC rules as
   the DES store — reusing it wholesale is what keeps the two backends'
   store semantics identical by construction); a latch per bucket makes
   every bucket operation atomic while letting operations on different
   buckets run fully in parallel.

   A bucket holds a 1/buckets share of the keys, so its item table
   starts at 64 slots rather than a whole store's 1024: a backend is
   cheap to build, which the schedule explorer does once per schedule.

   Item-level write exclusion is the backend's job (per-item locks, as
   in the paper); the bucket latch only protects the store's internal
   structures. *)

type 'v bucket = {
  latch : Latch.t;
  st : 'v Vstore.Store.t;
}

type 'v t = {
  buckets : 'v bucket array;
  mask : int;
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create ?(buckets = 64) ?bound ?gc_renumber () =
  if buckets < 1 then invalid_arg "Mstore.create: need at least one bucket";
  let n = pow2_at_least buckets 1 in
  {
    buckets =
      Array.init n (fun _ ->
          {
            latch = Latch.create ();
            st = Vstore.Store.create ?bound ?gc_renumber ~size:64 ();
          });
    mask = n - 1;
  }

(* The bucket's own item table indexes by the hash's low bits, so the
   bucket is picked by higher ones: keys sharing a bucket would
   otherwise all share their low bits and crowd a few of its slots. *)
let bucket t key = t.buckets.((Hashtbl.hash key lsr 16) land t.mask)

let read_le t key version =
  let b = bucket t key in
  Latch.with_latch b.latch (fun () -> Vstore.Store.read_le b.st key version)

let max_version t key =
  let b = bucket t key in
  Latch.with_latch b.latch (fun () -> Vstore.Store.max_version b.st key)

let write t key version value =
  let b = bucket t key in
  Latch.with_latch b.latch (fun () -> Vstore.Store.write b.st key version value)

let delete t key version =
  let b = bucket t key in
  Latch.with_latch b.latch (fun () -> Vstore.Store.delete b.st key version)

(* Commit-time apply of one workspace entry: [None] is a deletion
   (tombstone), mirroring Wal.Scheme.apply_to_store. *)
let apply t key version = function
  | Some value -> write t key version value
  | None -> delete t key version

let gc t ~collect ~query =
  Array.iter
    (fun b ->
      Latch.with_latch b.latch (fun () ->
          Vstore.Store.gc b.st ~collect ~query))
    t.buckets

let item_count t =
  Array.fold_left
    (fun acc b ->
      acc + Latch.with_latch b.latch (fun () -> Vstore.Store.item_count b.st))
    0 t.buckets

let high_water_versions t =
  Array.fold_left
    (fun acc b ->
      max acc
        (Latch.with_latch b.latch (fun () ->
             Vstore.Store.high_water_versions b.st)))
    0 t.buckets

(* Whole-store contents in Vstore.Store.snapshot format (per item,
   ascending (version, value-or-tombstone) pairs; items sorted by key) —
   directly comparable with a DES node store's snapshot, which is what
   the conformance harness does. *)
let snapshot t =
  Array.to_list t.buckets
  |> List.concat_map (fun b ->
         Latch.with_latch b.latch (fun () -> Vstore.Store.snapshot b.st))
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let latch_acquisitions t =
  Array.fold_left
    (fun acc b -> acc + Latch.acquisitions b.latch)
    0 t.buckets
