type t = {
  cfg : Config.t;
  clock_offset : float;
  metrics : Obs.Metrics.t;
  mutable rtt : float;
  mutable measured : bool;
  mutable ntp_init : bool;
  mutable count : int;
  mutable rejected : int;
  (* Reverse-path delay estimate (receiver clock minus sender clock
     convention), valid once measured. *)
  mutable d_reverse : float;
  (* High-water mark of local_now samples, for the non-monotonic-clock
     clamp; -inf until the first sample. *)
  mutable last_local_now : float;
  mutable clock_anomalies : int;
  m_rejected : Obs.Metrics.Counter.t;
}

(* Floor for clamped echo samples: a sample driven to zero or below by
   clock skew or a corrupted echo delay carries no usable magnitude, but
   it still proves the echo loop is closed — clamping (rather than
   discarding) lets [measured] flip so the estimator is not stuck on
   rtt_initial forever. *)
let sample_floor = 1e-3

let create ?(metrics = Obs.Metrics.null) ~cfg ~clock_offset () =
  {
    cfg;
    clock_offset;
    metrics;
    rtt = cfg.Config.rtt_initial;
    measured = false;
    ntp_init = false;
    count = 0;
    rejected = 0;
    d_reverse = nan;
    last_local_now = neg_infinity;
    clock_anomalies = 0;
    m_rejected = Obs.Metrics.counter metrics "check_rtt_sample_rejected_total";
  }

let local_time t ~now = now +. t.clock_offset

let estimate t = t.rtt

let has_measurement t = t.measured

let measurements t = t.count

let rejections t = t.rejected

let clock_anomalies t = t.clock_anomalies

(* Real clocks step backwards (NTP slew/step, VM migration); a backward
   [local_now] would make delay terms negative and poison the EWMA.
   Clamp to the high-water mark and count — the counter is registered on
   first use only, so deterministic runs (whose clocks are monotonic by
   construction) never see it in their metrics registry. *)
let guard_local_now t local_now =
  if local_now < t.last_local_now then begin
    t.clock_anomalies <- t.clock_anomalies + 1;
    Obs.Metrics.Counter.inc
      (Obs.Metrics.counter t.metrics
         ~labels:[ ("kind", "rtt-nonmonotonic-now") ]
         "tfmcc_rt_clock_anomaly_total");
    t.last_local_now
  end
  else begin
    t.last_local_now <- local_now;
    local_now
  end

let on_echo t ~local_now ~rx_ts ~echo_delay ~pkt_ts ~is_clr =
  let local_now = guard_local_now t local_now in
  let raw = local_now -. rx_ts -. echo_delay in
  (* Non-positive samples used to be discarded silently, which left
     [measured] unset forever when every echo arrived skewed — the
     receiver then reported rtt_initial for the whole session.  Clamp
     them to a small positive floor instead (the echo loop demonstrably
     closed, only the magnitude is garbage) and count the rejection; NaN
     carries no information at all and is dropped outright. *)
  if Float.is_nan raw then begin
    t.rejected <- t.rejected + 1;
    Obs.Metrics.Counter.inc t.m_rejected
  end
  else begin
    let inst =
      if raw > 0. then raw
      else begin
        t.rejected <- t.rejected + 1;
        Obs.Metrics.Counter.inc t.m_rejected;
        sample_floor
      end
    in
    let alpha =
      if not t.measured then 1.
      else if is_clr then Config.ewma_clr
      else Config.ewma_other
    in
    t.rtt <- (alpha *. inst) +. ((1. -. alpha) *. t.rtt);
    (* Seed the one-way state from this measurement; interim one-way
       adjustments are discarded. *)
    let d_forward = local_now -. pkt_ts in
    t.d_reverse <- inst -. d_forward;
    t.measured <- true;
    t.count <- t.count + 1
  end

let init_from_oneway t ~oneway ~max_error =
  if max_error < 0. then invalid_arg "Rtt_estimator.init_from_oneway: negative error";
  if not t.measured then begin
    let estimate = 2. *. (Float.max 0. oneway +. max_error) in
    if estimate > 0. && estimate < t.rtt then begin
      t.rtt <- estimate;
      t.ntp_init <- true
    end
  end

let ntp_initialized t = t.ntp_init

let on_data t ~local_now ~pkt_ts =
  let local_now = guard_local_now t local_now in
  if t.measured then begin
    let d_forward = local_now -. pkt_ts in
    let inst = t.d_reverse +. d_forward in
    if inst > 0. then begin
      let alpha = Config.ewma_oneway in
      t.rtt <- (alpha *. inst) +. ((1. -. alpha) *. t.rtt)
    end
  end
