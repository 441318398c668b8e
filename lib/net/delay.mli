(** Message-delay models.

    The paper's system model is asynchronous message passing augmented
    with partial synchrony sufficient to implement the eventually perfect
    detector: after an unknown global stabilization time (GST), message
    delays are bounded. [Partial_synchrony] realises exactly that
    (Dwork-Lynch-Stockmeyer); the other models are for stress and
    micro-tests. All delays are at least 1 tick. *)

type t =
  | Fixed of int
      (** Every message takes exactly this many ticks. *)
  | Uniform of int * int
      (** Uniform in [\[lo, hi\]]. *)
  | Exponential of float * int
      (** [Exponential (mean, cap)]: exponential with the given mean,
          truncated to [\[1, cap\]]. *)
  | Partial_synchrony of { gst : Sim.Time.t; pre : int * int; post : int * int }
      (** Uniform in [pre] before [gst] and in [post] (typically much
          tighter) from [gst] on. *)

val sample : t -> Sim.Rng.t -> now:Sim.Time.t -> int
(** Draw a delay for a message sent at [now]. Always [>= 1]. *)

val upper_bound_after : t -> Sim.Time.t -> int option
(** [upper_bound_after t gst']: a bound on delays of messages sent at or
    after [gst'], if the model provides one. *)
