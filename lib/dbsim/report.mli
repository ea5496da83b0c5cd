(** Plain-text table rendering for experiment reports. *)

val render : header:string list -> rows:string list list -> string
(** Aligned columns, a rule under the header. *)

val print : title:string -> header:string list -> rows:string list list -> unit
(** Render to stdout with a title banner. *)

val verdict : string -> string list -> unit
(** [verdict name violations] prints that [name] passed its checks, or
    prints each violation and exits 1. *)

(** {1 Experiment metrics sink}

    Each experiment run records the cluster's per-node
    {!Sim.Metrics.snapshot} here, tagged with the experiment and a
    configuration label.  Recording is safe from any domain (the
    experiments call it from inside [Sim.Pool.map] workers); the bench
    harness drains the sink into BENCH_micro.json.  Records come back
    sorted by (experiment, label), so the dump is identical at any
    AVA3_DOMAINS width. *)

type metrics_record = {
  experiment : string;  (** e.g. ["E10-faults"] *)
  label : string;  (** the configuration within the experiment *)
  metrics : Sim.Metrics.snapshot;
}

val record_metrics :
  experiment:string -> label:string -> Sim.Metrics.snapshot -> unit

val metrics_records : unit -> metrics_record list
(** Everything recorded since start-up (or {!clear_metrics}), sorted. *)

val clear_metrics : unit -> unit

val json_escape : string -> string
(** The body of a JSON string literal, without the surrounding quotes:
    double quotes, backslashes, newlines and the other control characters
    are escaped; every other byte, UTF-8 included, passes through. *)

val metrics_to_json : metrics_record list -> string
(** Compact JSON array of
    [{"experiment":..,"label":..,"nodes":<per-node metrics>}] objects,
    the node part as {!Sim.Metrics.to_json} renders it. *)
