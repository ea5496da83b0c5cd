(** Domain-safe three-version store: keys striped over latched buckets,
    each bucket an ordinary [Vstore.Store] (same three-slot inline
    representation, version bound, and GC rules as the DES store).
    Bucket latches make individual operations atomic; item-level write
    exclusion across operations is the caller's job. *)

type 'v t

val create : ?buckets:int -> ?bound:int -> ?gc_renumber:bool -> unit -> 'v t
(** [buckets] (default 64, rounded up to a power of two) sets the
    parallelism grain.  [bound]/[gc_renumber] as in
    {!Vstore.Store.create}. *)

val read_le : 'v t -> string -> int -> 'v option
(** The §3 visibility rule: value at the greatest version [<= v]. *)

val max_version : _ t -> string -> int option
val write : 'v t -> string -> int -> 'v -> unit
val delete : 'v t -> string -> int -> unit

val apply : 'v t -> string -> int -> 'v option -> unit
(** Commit-time apply of one workspace entry; [None] tombstones. *)

val gc : _ t -> collect:int -> query:int -> unit
(** Phase-3 collection over every bucket (same renumber/in-place rules
    as {!Vstore.Store.gc}). *)

val item_count : _ t -> int
val high_water_versions : _ t -> int

val snapshot : 'v t -> (string * (int * 'v option) list) list
(** Contents as data, sorted by key — the same shape as
    [Vstore.Store.snapshot], so a DES node store and an mcore site store
    can be compared with [=]. *)

val latch_acquisitions : _ t -> int
