(* The floats sit in their own all-float record (raw double storage),
   so the per-packet updates are plain stores and the receiver reads
   the estimate without a call that would box it. *)
type floats = {
  mutable rtt : float;
  (* Reverse-path delay estimate (receiver clock minus sender clock
     convention), valid once measured. *)
  mutable d_reverse : float;
  (* High-water mark of local-time samples, for the
     non-monotonic-clock clamp; -inf until the first sample. *)
  mutable last_local_now : float;
  clock_offset : float;
}

type t = {
  clock : Event_heap.time_cell;
  metrics : Obs.Metrics.t;
  f : floats;
  mutable measured : bool;
  mutable ntp_init : bool;
  m_rejected : Obs.Metrics.Counter.t;
}

(* Floor for clamped echo samples: a sample driven to zero or below by
   clock skew or a corrupted echo delay carries no usable magnitude, but
   it still proves the echo loop is closed — clamping (rather than
   discarding) lets [measured] flip so the estimator is not stuck on
   rtt_initial forever. *)
let sample_floor = 1e-3

let create ?(metrics = Obs.Metrics.null) ~cfg ~clock ~clock_offset () =
  {
    clock;
    metrics;
    f =
      {
        rtt = cfg.Config.rtt_initial;
        d_reverse = nan;
        last_local_now = neg_infinity;
        clock_offset;
      };
    measured = false;
    ntp_init = false;
    m_rejected = Obs.Metrics.counter metrics "check_rtt_sample_rejected_total";
  }

let floats t = t.f

let local_now t = t.clock.Event_heap.cell_time +. t.f.clock_offset

let has_measurement t = t.measured

(* Real clocks step backwards (NTP slew/step, VM migration); a backward
   local time would make delay terms negative and poison the EWMA.
   Clamp to the high-water mark and count — the counter is registered on
   first use only, so deterministic runs (whose clocks are monotonic by
   construction) never see it in their metrics registry.  The guarded
   sample is left in [t.f.last_local_now] for the caller to read, so no
   float is returned. *)
let sample_local_now t =
  let local_now = local_now t in
  if local_now < t.f.last_local_now then begin
    Obs.Metrics.Counter.inc
      (Obs.Metrics.counter t.metrics
         ~labels:[ ("kind", "rtt-nonmonotonic-now") ]
         "tfmcc_rt_clock_anomaly_total")
  end
  else t.f.last_local_now <- local_now

let on_echo t ~rx_ts ~echo_delay ~pkt_ts ~is_clr =
  sample_local_now t;
  let local_now = t.f.last_local_now in
  let raw = local_now -. rx_ts -. echo_delay in
  (* Non-positive samples used to be discarded silently, which left
     [measured] unset forever when every echo arrived skewed — the
     receiver then reported rtt_initial for the whole session.  Clamp
     them to a small positive floor instead (the echo loop demonstrably
     closed, only the magnitude is garbage) and count the rejection; NaN
     carries no information at all and is dropped outright. *)
  if Float.is_nan raw then Obs.Metrics.Counter.inc t.m_rejected
  else begin
    let inst =
      if raw > 0. then raw
      else begin
        Obs.Metrics.Counter.inc t.m_rejected;
        sample_floor
      end
    in
    let alpha =
      if not t.measured then 1.
      else if is_clr then Config.ewma_clr
      else Config.ewma_other
    in
    t.f.rtt <- (alpha *. inst) +. ((1. -. alpha) *. t.f.rtt);
    (* Seed the one-way state from this measurement; interim one-way
       adjustments are discarded. *)
    let d_forward = local_now -. pkt_ts in
    t.f.d_reverse <- inst -. d_forward;
    t.measured <- true
  end

let init_from_oneway t ~oneway ~max_error =
  if max_error < 0. then invalid_arg "Rtt_estimator.init_from_oneway: negative error";
  if not t.measured then begin
    let estimate = 2. *. (Float.max 0. oneway +. max_error) in
    if estimate > 0. && estimate < t.f.rtt then begin
      t.f.rtt <- estimate;
      t.ntp_init <- true
    end
  end

let ntp_initialized t = t.ntp_init

let on_data t ~pkt_ts =
  sample_local_now t;
  if t.measured then begin
    let d_forward = t.f.last_local_now -. pkt_ts in
    let inst = t.f.d_reverse +. d_forward in
    if inst > 0. then begin
      let alpha = Config.ewma_oneway in
      t.f.rtt <- (alpha *. inst) +. ((1. -. alpha) *. t.f.rtt)
    end
  end
