(** The simplified TCP throughput model of Mathis et al. (paper Eq. (4)):

    T = (s / R) · (C / √p),  C = √(3/2)

    Easier to invert than the full Padhye model and slightly more
    conservative; the paper uses its inverse to initialize the loss
    history after the first loss event (App. B). *)

val initial_loss_interval : s:int -> rtt:float -> rate:float -> float
(** 1 / p with p = (C·s / (R·T))² clamped to (0, 1], the exact inverse
    of the model: the synthetic first loss interval in packets given
    the rate at which the first loss event occurred (the paper plugs in
    half that rate to discount slowstart overshoot). *)
