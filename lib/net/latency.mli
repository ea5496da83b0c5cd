(** Message-latency models for the simulated network. *)

type t =
  | Constant of float  (** Every message takes exactly this long. *)
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float; floor : float }
      (** [floor + Exp(mean - floor)]: a minimum wire time plus an
          exponentially distributed queueing component. *)

val sample : t -> Sim.Rng.t -> float
(** Draw one latency value; always non-negative. *)

val mean : t -> float
(** Expected latency, used for reporting. *)
