(** The full TCP-Reno throughput model of Padhye et al. (paper Eq. (1)):

    T(s, R, p) = s / (R·√(2p/3) + t_RTO·(3·√(3p/8))·p·(1 + 32p²))

    with the TFRC convention t_RTO = 4R.  This is the control equation of
    both TFRC and TFMCC: each receiver plugs its measured loss event rate
    and RTT in and obtains the rate a TCP flow would achieve on its path. *)

val throughput : ?b:float -> s:int -> rtt:float -> float -> float
(** Expected TCP throughput in bytes/s.  [s] packet size in bytes,
    [rtt] seconds, loss event rate [p] ∈ (0, 1].  [b] is the number of
    packets acknowledged per ACK (default 1; the paper's Fig. 17 curve
    corresponds to delayed ACKs, b = 2).  Returns [infinity] when
    [p = 0].  Raises [Invalid_argument] outside those domains. *)

val inverse_loss : ?b:float -> s:int -> rtt:float -> float -> float
(** [inverse_loss ~s ~rtt rate] is the loss event rate at which the model
    yields [rate] bytes/s — the numeric inverse of {!throughput} in [p]
    (bisection; the model is strictly decreasing in p).  Clamped to
    [1e-12, 1].  Used to initialize the loss history (paper App. B). *)

val loss_events_per_rtt : ?b:float -> float -> float
(** Number of loss events per RTT when sending at the model rate with
    loss event rate [p] (paper App. A, Fig. 17):
    L(p) = p · T · R / s, which is independent of s and R.
    With b = 2 its maximum is ≈ 0.13, matching the paper's figure — the
    basis of the argument that a too-high initial RTT stays conservative
    (with b = 1 the peak is ≈ 0.19, which only strengthens it). *)
