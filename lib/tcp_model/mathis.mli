(** The simplified TCP throughput model of Mathis et al. (paper Eq. (4)):

    T = (s / R) · (C / √p),  C = √(3/2)

    Easier to invert than the full Padhye model and slightly more
    conservative; the paper uses its inverse to initialize the loss
    history after the first loss event (App. B) and to rescale the first
    loss interval when the real RTT replaces the initial RTT. *)

val throughput : s:int -> rtt:float -> p:float -> float
(** Bytes/s; [infinity] when [p = 0]. *)

val inverse_loss : s:int -> rtt:float -> rate:float -> float
(** Exact inverse: p = (C·s / (R·T))², clamped to (0, 1]. *)

val initial_loss_interval : s:int -> rtt:float -> rate:float -> float
(** 1 / inverse_loss — the synthetic first loss interval in packets given
    the rate at which the first loss event occurred (the paper plugs in
    half that rate to discount slowstart overshoot). *)

val rescale_first_interval :
  interval:float -> rtt_initial:float -> rtt_measured:float -> float
(** Paper App. B: when the first real RTT measurement arrives while the
    synthetic interval is still in the history, scale it by
    (R_measured / R_initial)² so the rate the receiver computes stays
    unchanged under the simplified model. *)
