(** The randomized feedback-timer mathematics of §2.5.

    Pure functions: given a round duration T, the assumed receiver bound
    N, and a receiver's rate ratio r = X_calc / X_send ∈ [0, 1], produce
    the (biased) exponentially distributed timer value, decide
    cancellation, compute round durations and the expected number of
    responses. *)

val draw :
  Stats.Rng.t ->
  bias:Config.bias ->
  t_max:float ->
  delta:float ->
  n_estimate:int ->
  ratio:float ->
  float
(** One timer value in [0, t_max].

    Unbiased (Eq. 2):  t = max(T·(1 + log_N x), 0), x ~ U(0,1].
    Offset (Eq. 3):    t = δ·T·r + (1-δ)·T·(1 + log_N x)⁺.
    Modified_offset:   as Offset with r replaced by
                       r' = (clamp(r, 0.5, 0.9) − 0.5)/0.4, so biasing
                       starts below 90 % of the sending rate and saturates
                       at 50 % (§2.5.1).
    Modified_n:        t = max(T·(1 + log_{N^r} x), 0) with N^r ≥ 2 —
                       shrinking the receiver bound with the ratio. *)

val normalized_ratio : float -> float
(** The Modified_offset truncation r ↦ (clamp(r, 0.5, 0.9) − 0.5)/0.4. *)

val draw_clamped :
  Stats.Rng.t ->
  on_anomaly:(unit -> unit) ->
  bias:Config.bias ->
  t_max:float ->
  delta:float ->
  n_estimate:int ->
  ratio:float ->
  float
(** {!draw} hardened for real clocks: a [t_max] that is non-finite or
    non-positive — a timer callback fired so late the round window
    collapsed — is clamped to a 1 ms floor and reported via
    [on_anomaly] instead of raising.  Identical to {!draw} (including
    RNG consumption) on every valid input. *)

val should_cancel : zeta:float -> own_rate:float -> echoed_rate:float -> bool
(** §2.5.2: cancel the pending timer iff
    echoed_rate − own_rate ≤ ζ·echoed_rate.  ζ = 1 cancels on any echo,
    ζ = 0 only when the echoed rate is at or below the receiver's own. *)

val round_duration :
  cfg:Config.t -> max_rtt:float -> rate:float -> float
(** T = max(round_rtt_factor·R_max, (k+1)·s/X_send): the §2.5.3 guard
    keeps suppression working when data packets are sparse. *)

val round_duration_clamped :
  on_anomaly:(unit -> unit) -> cfg:Config.t -> max_rtt:float -> rate:float -> float
(** {!round_duration} hardened for real clocks: a non-finite or
    non-positive [max_rtt]/[rate] (non-monotonic clock artefacts) falls
    back to the configured initial RTT / one packet per second and is
    reported via [on_anomaly] instead of raising.  Identical to
    {!round_duration} on every valid input. *)

val expected_messages :
  n:int -> n_estimate:int -> delay:float -> t_suppress:float -> float
(** Expected number of feedback messages per round for plain exponential
    suppression (the Fuhrmann–Widmer formula behind Fig. 4): [n] actual
    receivers, bound [n_estimate], one-way echo [delay] Δ, suppression
    window [t_suppress] T'.  Computed by numerical integration of
    n·E[(1 − F(t−Δ))^(n−1)] under the timer distribution F
    (2000 trapezoid steps per call; nothing is cached).  Only the
    Fig. 4 model calls it — no protocol path does. *)
