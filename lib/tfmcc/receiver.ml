(* All-float record: raw double storage, written on every data packet.
   The arrival time of the newest data packet (local clock) is the RTT
   estimator's [last_local_now]. *)
type hot = {
  mutable last_ts : float;  (* sender timestamp *)
  mutable sender_rate : float;
  mutable round_duration : float;
  (* App. B bookkeeping: RTT in use when the synthetic interval was made. *)
  mutable rtt_at_first_loss : float;
}

(* The accounting tag on report packets. *)
let report_flow = -1

type t = {
  env : Env.t;
  cfg : Config.t;
  session : int;
  report_to : int;  (* sender, or an aggregation-tree parent *)
  ntp_error : float option;  (* clock-sync bound for 2.4.1 initialization *)
  rng : Stats.Rng.t;
  rtt_est : Rtt_estimator.t;
  rtt_f : Rtt_estimator.floats;  (* [rtt_est]'s floats, read directly *)
  eq : Tcp_model.Padhye.cell;  (* the control equation's rtt, p and rate *)
  history : Tfrc.Loss_history.t;
  meter : Tfrc.Rate_meter.t;
  mutable joined : bool;
  mutable left : bool;
  (* Snapshot of the newest data packet. *)
  mutable have_data : bool;
  (* Per-packet float state, grouped in an all-float record ([hot]
     below) so the once-per-data-packet updates are raw double stores
     instead of boxing a float each. *)
  hot : hot;
  mutable sender_in_ss : bool;
  mutable sender_clr : int;  (* CLR id from the newest data packet; -1 none *)
  mutable round : int;
  mutable is_clr : bool;
  (* Feedback round state.  A timer field holds [Env.no_timer] while
     nothing is armed. *)
  mutable fb_timer : Env.timer;
  mutable fb_round : int;  (* round the pending timer belongs to *)
  mutable fb_first_loss : bool;  (* the pending timer is §2.6's first-loss report *)
  mutable clr_timer : Env.timer;
  mutable received : int;
  mutable reports : int;
  mutable suppressed : int;
  (* Observability: journal scope plus registry handles. *)
  obs : Obs.Sink.t;
  scope : Obs.Journal.scope;
  m_received : Obs.Metrics.Counter.t;
  m_reports : Obs.Metrics.Counter.t;
  m_suppressed : Obs.Metrics.Counter.t;
  m_malformed : Obs.Metrics.Counter.t;
  m_loss_events : Obs.Metrics.Counter.t;
  (* The CLR-report and feedback timer callbacks, built once by
     [create] so a re-arm allocates no closure, and the feedback draws'
     late-timer hook, [no_hook] until the first draw builds it. *)
  clr_cb : unit -> unit;
  fb_cb : unit -> unit;
  mutable late_timer : unit -> unit;
}

let no_hook () = ()

let now t = t.env.Env.clock.Event_heap.cell_time

let jnl t ?severity ev = Obs.Sink.event t.obs ~time:(now t) ?severity t.scope ev

let node_id t = t.env.Env.id

let joined t = t.joined

let local_now t = Rtt_estimator.local_now t.rtt_est

let rtt t = t.rtt_f.Rtt_estimator.rtt

let has_rtt_measurement t = Rtt_estimator.has_measurement t.rtt_est

let loss_event_rate t = Tfrc.Loss_history.loss_event_rate t.history

let has_loss t = Tfrc.Loss_history.has_loss t.history

let x_recv t = Tfrc.Rate_meter.rate_bytes_per_s t.meter

(* The control equation's rate from the loss event rate in [t.eq.p],
   into [t.eq.rate]. *)
let calculated_rate t =
  let eq = t.eq in
  if eq.p <= 0. then eq.rate <- infinity
  else begin
    eq.rtt <- rtt t;
    Tcp_model.Padhye.throughput_cell ~b:t.cfg.Config.b ~s:t.cfg.Config.packet_size eq
  end

let is_clr t = t.is_clr

let packets_received t = t.received

let reports_sent t = t.reports

let timers_suppressed t = t.suppressed

(* The rate this receiver would report right now, into [t.eq.rate]:
   the calculated rate once it has seen loss, the receive rate during
   slowstart. *)
let update_report_rate t =
  if has_loss t then begin
    Tfrc.Loss_history.loss_event_rate_into t.history t.eq;
    calculated_rate t
  end
  else t.eq.rate <- x_recv t

let cancel_fb_timer t =
  t.env.Env.cancel t.fb_timer;
  t.fb_timer <- Env.no_timer

let cancel_clr_timer t =
  t.env.Env.cancel t.clr_timer;
  t.clr_timer <- Env.no_timer

(* Each float is read from a cell or returned boxed once, and that box
   is the report's: the loss event rate is computed once, for both the
   rate and [p], and the local time is [Rtt_estimator.local_now]'s sum
   read here, so neither is boxed on its way back. *)
let report_msg t ~leaving =
  let eq = t.eq in
  let now_local = now t +. t.rtt_f.Rtt_estimator.clock_offset in
  let has_loss = has_loss t in
  Tfrc.Loss_history.loss_event_rate_into t.history eq;
  let x_recv = x_recv t in
  let rate =
    if has_loss then begin
      calculated_rate t;
      eq.rate
    end
    else x_recv
  in
  let rate =
    if leaving then rate
    else if Float.is_finite rate then rate
    else t.hot.sender_rate
  in
  Wire.Report
    {
      session = t.session;
      rx_id = node_id t;
      ts = now_local;
      echo_ts = t.hot.last_ts;
      echo_delay = now_local -. t.rtt_f.Rtt_estimator.last_local_now;
      rate;
      have_rtt = has_rtt_measurement t;
      rtt = rtt t;
      p = eq.p;
      x_recv;
      round = t.round;
      has_loss;
      leaving;
    }

let send_report t =
  if t.joined && t.have_data then begin
    t.env.Env.send
      ~dest:(Env.To_node t.report_to)
      ~flow:report_flow ~size:Wire.report_size
      (report_msg t ~leaving:false);
    t.reports <- t.reports + 1;
    Obs.Metrics.Counter.inc t.m_reports
  end

let send_leave_report t =
  if t.have_data then
    t.env.Env.send
      ~dest:(Env.To_node t.report_to)
      ~flow:report_flow ~size:Wire.report_size
      (report_msg t ~leaving:true)

(* CLR duty: immediate unsuppressed feedback, once per RTT.  The
   timer fires [t.clr_cb], which is [clr_report_due t]. *)
let schedule_clr_report t =
  cancel_clr_timer t;
  let delay = Float.max 1e-3 (rtt t) in
  t.clr_timer <- t.env.Env.after ~delay t.clr_cb

let clr_report_due t =
  t.clr_timer <- Env.no_timer;
  if t.is_clr && t.joined then begin
    send_report t;
    schedule_clr_report t
  end

let become_clr t =
  if not t.is_clr then begin
    t.is_clr <- true;
    jnl t (Obs.Journal.Note "became CLR");
    cancel_fb_timer t;
    send_report t;
    schedule_clr_report t
  end

let stop_being_clr t =
  if t.is_clr then begin
    t.is_clr <- false;
    jnl t (Obs.Journal.Note "ceased being CLR");
    cancel_clr_timer t
  end

(* Would this receiver report at all this round? *)
let wants_to_report t =
  if t.sender_in_ss then
    (* Slowstart: everyone reports its receive rate so the sender can
       track the minimum. *)
    true
  else if not (has_loss t) then
    (* No loss seen: normally silent, but when the sender lost its CLR
       (header advertises clr = -1: leave, timeout, or it is recovering
       from feedback starvation) even loss-free receivers volunteer their
       receive rate so the sender knows the group is still populated and
       the channel alive. *)
    t.sender_clr < 0
  else begin
    update_report_rate t;
    t.eq.rate < t.hot.sender_rate
    (* The sender lost its CLR (leave/timeout): volunteer so it can pick
       the new limiting receiver instead of ramping blindly. *)
    || t.sender_clr < 0
  end

let bias_ratio t =
  if t.hot.sender_rate <= 0. then 1.
  else begin
    update_report_rate t;
    let r = t.eq.rate /. t.hot.sender_rate in
    Float.max 0. (Float.min 1. r)
  end

(* A feedback timer's expiry: [t.fb_cb].  A round's timer re-checks
   the conditions, which may have improved since round start; the
   first-loss timer reports unconditionally (only other loss reports
   may have suppressed it). *)
let fb_round_due t =
  t.fb_timer <- Env.no_timer;
  if t.joined && (not t.is_clr) && (t.fb_first_loss || wants_to_report t) then
    send_report t

(* The late-timer hook of the feedback draws, built at the first draw
   rather than with the receiver. *)
let late_timer t =
  if t.late_timer == no_hook then
    t.late_timer <- (fun () -> Env.clock_anomaly t.env ~kind:"late-timer");
  t.late_timer

let start_round t ~round ~duration =
  t.round <- round;
  t.hot.round_duration <- duration;
  cancel_fb_timer t;
  if (not t.is_clr) && wants_to_report t then begin
    let delay =
      Feedback_timer.draw_clamped t.rng ~on_anomaly:(late_timer t)
        ~bias:t.cfg.Config.bias ~t_max:duration ~delta:Config.fb_delta
        ~n_estimate:Config.n_estimate ~ratio:(bias_ratio t)
    in
    t.fb_round <- round;
    t.fb_first_loss <- false;
    t.fb_timer <- t.env.Env.after ~delay t.fb_cb
  end

(* Suppression by the lowest feedback echoed so far this round. *)
let consider_suppression t (fb : Wire.fb_echo) =
  (* Only a pending feedback timer can be suppressed. *)
  if t.cfg.Config.use_suppression && t.fb_timer != Env.no_timer then begin
    let mine_has_loss = has_loss t in
    (* During slowstart a loss report cannot be suppressed by a
       rate-only report (§2.6). *)
    if mine_has_loss && not fb.fb_has_loss then ()
    else begin
      let cancel =
        (* A pure receive-rate report (slowstart, no loss yet) carries
           no information beyond the minimum already echoed: any echo
           suppresses it.  Loss reports use the ζ rule. *)
        (not mine_has_loss)
        || begin
             update_report_rate t;
             Feedback_timer.should_cancel ~zeta:t.cfg.Config.zeta
               ~own_rate:t.eq.rate ~echoed_rate:fb.fb_rate
           end
      in
      if cancel then begin
        cancel_fb_timer t;
        t.suppressed <- t.suppressed + 1;
        Obs.Metrics.Counter.inc t.m_suppressed
      end
    end
  end

let on_data t ~size (d : Wire.data) =
  if t.joined then begin
    (* 2.4.1: synchronized clocks give a first RTT estimate from the very
       first packet's one-way delay. *)
    (match t.ntp_error with
    | Some eps when not t.have_data ->
        let oneway = local_now t -. d.ts in
        Rtt_estimator.init_from_oneway t.rtt_est ~oneway ~max_error:eps
    | Some _ | None -> ());
    t.received <- t.received + 1;
    Obs.Metrics.Counter.inc t.m_received;
    t.have_data <- true;
    t.hot.last_ts <- d.ts;
    t.hot.sender_rate <- d.rate;
    t.sender_in_ss <- d.in_slowstart;
    t.sender_clr <- d.clr;
    (* RTT machinery: echo measurement has priority over the one-way
       adjustment from the same packet.  Either one stamps the arrival
       (the estimator's [last_local_now]). *)
    let had_measurement = has_rtt_measurement t in
    (match d.echo with
    | Some e when e.Wire.rx_id = node_id t ->
        Rtt_estimator.on_echo t.rtt_est ~rx_ts:e.Wire.rx_ts
          ~echo_delay:e.Wire.echo_delay ~pkt_ts:d.ts ~is_clr:t.is_clr
    | Some _ | None -> Rtt_estimator.on_data t.rtt_est ~pkt_ts:d.ts);
    (* App. B: rescale the synthetic first interval when the first real
       RTT measurement replaces the estimate it was computed with. *)
    if (not had_measurement) && has_rtt_measurement t then begin
      if Tfrc.Loss_history.has_loss t.history && t.hot.rtt_at_first_loss > 0. then begin
        let factor =
          let r = rtt t /. t.hot.rtt_at_first_loss in
          r *. r
        in
        Tfrc.Loss_history.rescale_synthetic t.history ~factor;
        (* App. A's stronger correction: re-aggregate the logged loss gaps
           with the real RTT. *)
        if t.cfg.Config.remodel_on_first_rtt then
          Tfrc.Loss_history.remodel t.history ~rtt:(rtt t)
      end
    end;
    (* Receive rate over a few RTTs of the post-update estimate.  The
       window goes to the meter through its all-float cell, and the
       meter and the loss history read the time from the clock cell, so
       none of this boxes a float. *)
    let window =
      Float.max (2. *. rtt t)
        (4. *. float_of_int t.cfg.Config.packet_size /. d.rate)
    in
    (Tfrc.Rate_meter.window t.meter).seconds <- Float.max 0.05 window;
    Tfrc.Rate_meter.record t.meter ~bytes:size;
    (* Loss detection. *)
    let had_loss = Tfrc.Loss_history.has_loss t.history in
    let prev_loss_events = Tfrc.Loss_history.loss_events t.history in
    Tfrc.Loss_history.on_packet t.history ~seq:d.seq;
    let new_loss_events =
      Tfrc.Loss_history.loss_events t.history - prev_loss_events
    in
    if new_loss_events > 0 then begin
      Obs.Metrics.Counter.add t.m_loss_events new_loss_events;
      if Obs.Journal.enabled t.obs.Obs.Sink.journal then
        jnl t ~severity:Obs.Journal.Debug
          (Obs.Journal.Loss_event { p = loss_event_rate t })
    end;
    (* First loss while the sender is in slowstart: report within one
       feedback delay (§2.6) even if this round's rate-based timer was
       already suppressed — only other loss reports may suppress it. *)
    if (not had_loss) && Tfrc.Loss_history.has_loss t.history && d.in_slowstart
       && not t.is_clr
    then begin
      cancel_fb_timer t;
      let delay =
        Feedback_timer.draw_clamped t.rng ~on_anomaly:(late_timer t)
          ~bias:t.cfg.Config.bias ~t_max:d.round_duration
          ~delta:Config.fb_delta ~n_estimate:Config.n_estimate
          ~ratio:0.
      in
      t.fb_round <- d.round;
      t.fb_first_loss <- true;
      t.fb_timer <- t.env.Env.after ~delay t.fb_cb
    end;
    (* CLR status. *)
    if d.clr = node_id t then become_clr t else stop_being_clr t;
    (* Feedback rounds. *)
    if d.round <> t.round then
      start_round t ~round:d.round ~duration:d.round_duration;
    (match d.fb with
    | Some f when not t.is_clr -> consider_suppression t f
    | Some _ | None -> ())
  end

let create ~env ~cfg ~session ~sender ?report_to ?(clock_offset = 0.)
    ?ntp_error () =
  let report_to = Option.value report_to ~default:sender in
  let obs = env.Env.obs in
  let metrics = obs.Obs.Sink.metrics in
  let labels = [ ("session", string_of_int session) ] in
  let clock = env.Env.clock in
  let rtt_est = Rtt_estimator.create ~metrics ~cfg ~clock ~clock_offset () in
  let rtt_f = Rtt_estimator.floats rtt_est in
  let meter = Tfrc.Rate_meter.create ~clock ~window:1. () in
  let rec t =
    lazy
      {
        env;
        cfg;
        session;
        report_to;
        ntp_error;
        rng = env.Env.split_rng ();
        rtt_est;
        rtt_f;
        eq = { Tcp_model.Padhye.rtt = 0.; p = 0.; rate = 0. };
        history =
          Tfrc.Loss_history.create ~clock
            ~rtt:(fun () -> rtt_f.Rtt_estimator.rtt)
            ~n_intervals:cfg.Config.n_intervals
            ~first_interval:(fun () ->
              let self = Lazy.force t in
              (* App. B: seed from half the receive rate at first loss
                 (read now, inside the packet that opened the loss),
                 remembering the RTT used. *)
              self.hot.rtt_at_first_loss <- rtt_f.Rtt_estimator.rtt;
              let rate_at_loss = Tfrc.Rate_meter.rate_bytes_per_s meter in
              if rate_at_loss > 0. then
                Some
                  (Tcp_model.Mathis.initial_loss_interval
                     ~s:cfg.Config.packet_size ~rtt:rtt_f.Rtt_estimator.rtt
                     ~rate:(rate_at_loss /. 2.))
              else None)
            ();
        meter;
        joined = false;
        left = false;
        have_data = false;
        hot =
          {
            last_ts = nan;
            sender_rate = float_of_int cfg.Config.packet_size;
            round_duration = cfg.Config.rtt_initial *. Config.round_rtt_factor;
            rtt_at_first_loss = 0.;
          };
        sender_in_ss = true;
        sender_clr = -1;
        round = -1;
        is_clr = false;
        fb_timer = Env.no_timer;
        fb_round = -1;
        fb_first_loss = false;
        clr_timer = Env.no_timer;
        received = 0;
        reports = 0;
        suppressed = 0;
        obs;
        scope = Obs.Journal.scope ~session ~node:env.Env.id "tfmcc.receiver";
        m_received =
          Obs.Metrics.counter metrics ~labels
            "tfmcc_receiver_packets_received_total";
        m_reports =
          Obs.Metrics.counter metrics ~labels "tfmcc_receiver_reports_total";
        m_suppressed =
          Obs.Metrics.counter metrics ~labels "tfmcc_receiver_suppressed_total";
        m_malformed =
          Obs.Metrics.counter metrics ~labels
            "tfmcc_receiver_malformed_drops_total";
        m_loss_events =
          Obs.Metrics.counter metrics ~labels "tfmcc_receiver_loss_events_total";
        clr_cb = (fun () -> clr_report_due (Lazy.force t));
        fb_cb = (fun () -> fb_round_due (Lazy.force t));
        late_timer = no_hook;
      }
  in
  Lazy.force t

let deliver_data t ~size (d : Wire.data) =
  if d.Wire.session = t.session then begin
    if
      Wire.data_fields_valid ~seq:d.seq ~ts:d.ts ~rate:d.rate ~round:d.round
        ~round_duration:d.round_duration ~max_rtt:d.max_rtt ~clr:d.clr
        ~echo:d.echo ~fb:d.fb
    then on_data t ~size d
    else if t.joined then begin
      Obs.Metrics.Counter.inc t.m_malformed;
      jnl t ~severity:Obs.Journal.Warn
        (Obs.Journal.Malformed_drop { what = "data-fields" })
    end
  end

let join t =
  if t.left then invalid_arg "Receiver.join: receiver has left the session";
  if not t.joined then begin
    t.joined <- true;
    jnl t Obs.Journal.Join;
    t.env.Env.join ()
  end

let leave t ?(explicit_leave = true) () =
  if t.joined then begin
    t.joined <- false;
    t.left <- true;
    jnl t (Obs.Journal.Leave { explicit = explicit_leave });
    cancel_fb_timer t;
    cancel_clr_timer t;
    t.is_clr <- false;
    t.env.Env.leave ();
    if explicit_leave then send_leave_report t
  end
