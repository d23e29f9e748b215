(** Receiver-side RTT estimation (paper §2.4).

    Starts from the configured initial value (500 ms).  A real measurement
    happens when the sender echoes this receiver's report: the
    instantaneous RTT is local-now − own-timestamp − sender-hold-time,
    smoothed with an EWMA whose gain depends on whether the receiver is
    the CLR (frequent measurements, gain 0.05) or not (rare measurements,
    gain 0.5).

    Between real measurements the estimate follows one-way-delay
    adjustments (§2.4.3): at measurement time the receiver computes the
    reverse-path delay d_r→s = RTT_inst − d_s→r (both terms include the
    receiver's clock offset, which cancels); on every later data packet
    an up-to-date RTT estimate d_r→s + d'_s→r is formed and folded in
    with a small gain.  When a real measurement arrives, interim one-way
    adjustments are discarded.

    The estimator reads the time itself, from the receiver's clock cell
    plus its clock offset (the receiver's local clock), and its floats
    sit in an all-float record the receiver reads directly: the
    per-packet {!on_data} passes no float it has to box and returns
    none (DESIGN.md §14).  Timestamps fed to this module are in the
    receiver's local clock. *)

type t

type floats = private {
  mutable rtt : float;
      (** the current estimate (the configured initial value before the
          first real measurement) *)
  mutable d_reverse : float;
      (** reverse-path delay from the last real measurement; NaN before *)
  mutable last_local_now : float;
      (** the latest local-time sample taken by {!on_data} or
          {!on_echo}, clamped to never decrease (a clock anomaly);
          [neg_infinity] before the first *)
  clock_offset : float;  (** local clock minus the runtime clock *)
}
(** All-float record (raw double storage): a field read is a raw double
    load.  Read-only outside this module. *)

val create :
  ?metrics:Obs.Metrics.t ->
  cfg:Config.t ->
  clock:Event_heap.time_cell ->
  clock_offset:float ->
  unit ->
  t
(** [clock] is the runtime clock the receiver runs on ([Env.clock]).
    [metrics] (default {!Obs.Metrics.null}) receives the
    [check_rtt_sample_rejected_total] counter: echo samples whose raw
    value was non-positive (clock skew, corrupted echo delay) or NaN.
    It also receives
    [tfmcc_rt_clock_anomaly_total{kind="rtt-nonmonotonic-now"}]:
    local-time samples below an earlier sample — a real clock stepping
    backwards (NTP step, VM migration); the simulator never produces
    one — which are clamped to the high-water mark instead of
    corrupting the delay terms.  That counter is registered on the
    first anomaly, so deterministic runs keep their registry
    unchanged. *)

val floats : t -> floats

val local_now : t -> float
(** The runtime clock plus this receiver's clock offset. *)

val has_measurement : t -> bool

val on_echo :
  t -> rx_ts:float -> echo_delay:float -> pkt_ts:float -> is_clr:bool -> unit
(** A data packet echoed this receiver's report, arriving now (the raw
    sample is [local now − rx_ts − echo_delay]): [rx_ts] is the timestamp
    this receiver put in the report (local clock), [echo_delay] the
    sender's hold time, [pkt_ts] the data packet's sender timestamp
    (sender clock, used to seed the one-way state).

    A sample whose raw value is non-positive is clamped to a 1 ms floor
    (and counted under [check_rtt_sample_rejected_total]) rather than
    silently discarded: the echo proves the measurement loop is closed,
    and discarding it would leave the estimate stuck on the configured
    initial value for as long as the skew persists.  NaN samples are dropped (and
    counted). *)

val on_data : t -> pkt_ts:float -> unit
(** A regular data packet arriving now: takes the local-time sample and
    makes the one-way-delay adjustment, which is a no-op before the first
    real measurement. *)

val init_from_oneway : t -> oneway:float -> max_error:float -> unit
(** §2.4.1's synchronized-clock initialization: when sender and receiver
    clocks are synchronized to within [max_error] (GPS: ~0; NTP: the
    RTT+dispersion to the stratum-1 server), the first data packet's
    one-way delay yields the conservative first estimate
    RTT = 2·(oneway + max_error).  Only applies before any real
    measurement and only if it is *tighter* than the configured initial
    value; real echo measurements still replace it entirely. *)

val ntp_initialized : t -> bool
