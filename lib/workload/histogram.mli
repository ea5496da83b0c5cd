(** Sample collector with percentile reporting.

    Keeps every sample (experiment scales are small enough); quantiles are
    computed on demand over a sorted copy. *)

type t

val create : unit -> t

val add : t -> float -> unit
val count : t -> int
val mean : t -> float
val max_value : t -> float

val percentile : t -> float -> float
(** [percentile t 0.99] — nearest-rank quantile.  0 on an empty histogram. *)

val merge : t -> t -> t
(** New histogram holding both sample sets. *)

val summary : t -> string
(** "n=… mean=… p50=… p95=… p99=… max=…" *)

val pp : Format.formatter -> t -> unit
