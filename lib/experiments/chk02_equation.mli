(** Equation-consistency oracle: the sender's rate against the Padhye
    throughput recomputed from the receiver's own loss-event rate and
    RTT (DESIGN.md §11). *)

type sample = {
  time : float;
  rate_kbps : float;
  model_kbps : float;
  gap : float;  (** {!Check.Oracle.equation_gap} at this instant *)
}

val measure : ?loss:float -> ?delay:float -> t_end:float -> unit -> sample list
(** One-receiver star at seed 42 with Bernoulli loss (default 1%, 40 ms);
    per-second samples after a [t_end]/3 warmup, kept only once the
    receiver has loss and a real RTT measurement.  Also the body of the
    QCheck property. *)

val mean_gap : sample list -> float
(** Mean of the finite gaps; [infinity] when no usable samples. *)

val tolerance : float
(** Acceptance threshold on {!mean_gap} (0.15 — the sender tracks a
    smoothed, capped version of the receiver's calculated rate, so the
    instantaneous equation gap is bounded but not zero; observed steady
    state sits under 1%). *)

val run : mode:Scenario.mode -> seed:int -> Series.t list
