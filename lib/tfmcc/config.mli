(** TFMCC protocol parameters.

    The record {!t} holds only the settings that something varies: the
    ablations (abl01-abl08), ext01, rob07 and the CLI each set one of
    them to a second value, and [b] is next in line (the Fig. 10 work).
    [packet_size] and [max_rate] stay in the record because the
    benchmark harness reads them from [default].

    Every other value that the paper (§2) or RFC 4654 fixes is a
    constant below, with the paper section it comes from; DESIGN.md §3
    tables them with the modules that read each one. *)

(** Feedback-timer biasing method (paper §2.5.1, Figs 1/5/6). *)
type bias =
  | Unbiased  (** plain exponential timers, Eq. (2) *)
  | Offset  (** offset by the raw rate ratio, Eq. (3) *)
  | Modified_offset
      (** offset by the ratio truncated to [0.5, 0.9] and renormalized —
          the method TFMCC adopts *)
  | Modified_n  (** shrink the receiver-set bound N with the ratio *)

type t = {
  packet_size : int;  (** s, bytes; default 1000 *)
  n_intervals : int;  (** WALI depth; default 8 *)
  rtt_initial : float;  (** initial RTT estimate, s; default 0.5 *)
  bias : bias;  (** default Modified_offset *)
  zeta : float;  (** ζ, feedback cancellation threshold; 0.1 *)
  use_suppression : bool;
      (** when false, receivers ignore echoed feedback (no timer
          cancellation) — for deployments where an aggregation tree
          (§6.1, {!Aggregator}) absorbs the feedback volume instead *)
  remodel_on_first_rtt : bool;
      (** App. A's full loss-history remodel (re-aggregating logged loss
          gaps with the measured RTT) instead of only rescaling the
          synthetic first interval; default false (the simpler correction
          is what the calibrated figures use) *)
  remember_clr : bool;  (** keep the previous CLR for fast switch-back (App. C) *)
  defense_enabled : bool;
      (** switch for the adversarial-receiver defenses (plausibility
          filtering, outlier rejection, CLR flap damping,
          suspicion/quarantine — see DESIGN.md §10), tuned by the
          [defense_*] constants below.  Default false: with it off the
          protocol behaves exactly as the paper describes. *)
  b : float;
      (** packets-per-ACK parameter of the control equation; 2, the form
          the paper itself evidently used (its App. A curve peaks at the
          b = 2 value, see Fig. 17) and the value that makes the shared-
          bottleneck fairness of Fig. 9 come out right against our Reno *)
  max_rate : float;  (** hard rate cap, bytes/s (sender's line rate) *)
}

val default : t

val validate : t -> (unit, string) result
(** Checks ranges; used by property tests and the CLI.  Every float
    field must be finite (NaN fails every range check). *)

(** {1 RTT measurement (§2.4)} *)

val ewma_clr : float
(** RTT EWMA gain for the CLR; 0.05. *)

val ewma_other : float
(** RTT EWMA gain for non-CLR receivers; 0.5. *)

val ewma_oneway : float
(** Gain for one-way-delay adjustments (§2.4.3); 0.005.  Applied per data
    packet, so it must be far below the per-measurement gains or
    transient queueing delay sweeps straight into the calculated
    rate. *)

(** {1 Feedback rounds and timers (§2.5)} *)

val round_rtt_factor : float
(** T = round_rtt_factor · R_max; 6, so that the effective suppression
    window T' = (1-δ)·T is the 4 RTTs that §2.5.4's analysis calls
    for. *)

val round_min_packets : int
(** k: T is also ≥ (k+1)·s/X_send so the echo can outrun suppression at
    low rates (§2.5.3); 3. *)

val fb_delta : float
(** δ, the fraction of T used for the rate offset (§2.5.1); 1/3. *)

val n_estimate : int
(** N, the assumed receiver-set bound of the feedback timers (§2.5);
    10,000. *)

(** {1 Rate control (§2.2, §2.6, App. C)} *)

val clr_timeout_rounds : float
(** Drop the CLR after this many feedback delays of silence (§2.2); 10.  Its
    ceiling is also how many rounds stale a report may be. *)

val slowstart_multiplier : float
(** d: slowstart target = d · min X_recv (§2.6); 2. *)

val increase_limit_packets : float
(** Rate increase cap after a CLR switch, packets per RTT; 1. *)

val remember_clr_rtts : float
(** How long the previous CLR is remembered, in CLR RTTs (App. C); 4. *)

(** {1 Feedback starvation (DESIGN.md §7.2)} *)

val starvation_rounds : float
(** When no receiver at all has been heard for this many feedback
    rounds the sender enters a bounded rate decay instead of
    free-running — the multicast analogue of TFRC's no-feedback timer
    (partition, total report loss, or an empty group); 2. *)

val starvation_decay : float
(** Multiplicative rate decay applied once per feedback round while
    starved, down to the one-packet floor; 0.5 (halving, as TFRC's
    no-feedback rule). *)

(** {1 Adversarial-receiver defenses (DESIGN.md §10)}

    Read only when [defense_enabled] is set. *)

val defense_equation_slack : float
(** Plausibility: a loss report's calculated rate may deviate from the
    TCP equation evaluated at its own claimed (rtt, p) by at most this
    factor either way; 4 (the equation and a receiver's WALI/EWMA
    estimators legitimately disagree by a small factor, never by orders
    of magnitude). *)

val defense_rtt_floor_fraction : float
(** Plausibility: a claimed RTT must be at least this fraction of the
    sender-side RTT sample (now - echo_ts - echo_delay), a physically
    observable floor the receiver cannot deflate without inflating
    echo_delay; 0.25. *)

val defense_xrecv_slack : float
(** Plausibility: a claimed x_recv must not exceed this multiple of the
    sender's own sending rate — nobody receives faster than the sender
    sends; 3 (burst tolerance). *)

val defense_echo_delay_rounds : float
(** Plausibility: a claimed echo_delay must be below this many round
    durations (honest receivers echo the newest data packet, held at
    most ~1 round); 4.  Bounds the echo_delay-inflation evasion of the
    RTT floor. *)

val defense_mad_threshold : float
(** Outlier screen: a CLR-capturing report is rejected when its log10
    rate sits more than this many MADs below the robust median of
    recent reports; 5. *)

val defense_mad_floor : float
(** Outlier screen: MAD floor in log10 decades, so a quiet
    (low-variance) group still tolerates honest rate drops; 0.15
    (5 x 0.15 = 0.75 decades ~ 5.6x). *)

val defense_mad_min_reports : int
(** Outlier screen: distinct receivers required in the recent-report
    window before the MAD screen applies; below it the fallback ratio
    test against the sending rate is used; 4. *)

val defense_drop_ratio : float
(** Outlier fallback when the window lacks quorum: reject a
    CLR-capturing report more than this factor below the current
    sending rate; 30. *)

val defense_report_horizon_rounds : float
(** Recent-report window for the outlier screen, in feedback rounds;
    8. *)

val defense_holddown_rounds : float
(** CLR flap damping: after an accepted CLR switch further switches are
    held down for this many round durations; 1 (a hold-down shorter
    than one feedback round could not damp anything). *)

val defense_holddown_max_rounds : float
(** Exponential hold-down cap: each switch inside the previous
    hold-down window doubles the next hold-down, up to this many
    rounds; 8. *)

val defense_clr_hysteresis : float
(** A takeover report must undercut the current CLR's rate by this
    relative margin (rate < (1 - h) * clr_rate), so near-equal receivers
    cannot ping-pong the election; 0.05. *)

val defense_max_reports_per_round : int
(** Spam screen: non-CLR reports from one receiver above this count per
    feedback round are dropped and raise suspicion; 4. *)

val defense_suspicion_threshold : float
(** Quarantine a receiver when its suspicion score (one point per
    rejected report, decayed per round) reaches this; 3. *)

val defense_suspicion_decay : float
(** Multiplicative suspicion decay per feedback round; 0.5. *)

val defense_quarantine_rounds : float
(** Quarantine duration in round durations; 20. *)
