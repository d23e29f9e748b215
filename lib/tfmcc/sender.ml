(* Echo priority classes, §2.4.2 (lower = more urgent). *)
let class_new_clr = 1

let class_no_rtt = 2

let class_non_clr = 3

let class_clr = 4

type pending_echo = Echo_queue.entry = {
  pe_rx : int;
  pe_ts : float;
  pe_arrival : float;
  pe_class : int;
  pe_rate : float;
}

type clr_state = {
  mutable clr_id : int;
  mutable clr_rtt : float;
  mutable clr_rate : float;  (* last (adjusted) rate the CLR reported *)
  mutable clr_last_report : float;
}

type prev_clr = { prev_id : int; prev_rate : float; prev_until : float }

type t = {
  env : Env.t;
  cfg : Config.t;
  session : int;
  rng : Stats.Rng.t;
  mutable running : bool;
  mutable rate : float;  (* X_send, bytes/s *)
  mutable in_ss : bool;
  mutable ss_target : float;
  mutable ss_min_xrecv : float;  (* min receive rate reported this round *)
  mutable ss_round : int;  (* last round that raised the target (§2.6:
                              the target grows once per feedback round,
                              not per CLR report) *)
  mutable seq : int;
  mutable round : int;
  mutable round_duration : float;
  mutable round_started : float;
  mutable max_rtt : float;
  (* Last RTT sample and its arrival time per receiver; entries leave
     with an explicit leave report, on CLR timeout, or by staleness. *)
  rtt_table : (int, float * float) Hashtbl.t;
  mutable clr : clr_state option;
  mutable prev_clr : prev_clr option;
  (* Lowest report seen this round, echoed in data packets. *)
  mutable round_fb : Wire.fb_echo option;
  mutable pending_echoes : pending_echo list;  (* sorted by (class, rate) *)
  mutable clr_echo : pending_echo option;  (* CLR default echo *)
  mutable last_rate_change : float;
  (* Pacing rides fire-and-forget events ([Env.after_unit]): the one
     closure per [start] is stored here and re-scheduled for every
     packet, so steady-state pacing allocates neither a closure nor a
     cancel handle.  [stop] bumps [pacing_gen] instead of
     cancelling; a stale event fires into a generation check and dies. *)
  mutable pacing_gen : int;
  mutable pacing_cb : unit -> unit;
  mutable round_timer : Env.timer option;
  mutable sent : int;
  mutable reports : int;
  mutable clr_changes : int;
  mutable clr_timeouts : int;
  (* Degradation state machine (see DESIGN.md §7): [last_report_arrival]
     feeds starvation detection; [clr_lost] is set when the CLR vanished
     (timeout or leave) and cleared when a replacement is installed. *)
  mutable last_report_arrival : float;
  mutable starved : bool;
  mutable starvations : int;
  mutable clr_lost : bool;
  mutable clr_failovers_n : int;
  (* Adversarial-receiver defenses (DESIGN.md §10); None unless
     [cfg.defense_enabled]. *)
  defense : Defense.t option;
  (* Observability: journal scope plus registry handles (resolved once at
     creation; recording is a field write on the hot path). *)
  obs : Obs.Sink.t;
  scope : Obs.Journal.scope;
  m_sent : Obs.Metrics.Counter.t;
  m_reports : Obs.Metrics.Counter.t;
  m_clr_changes : Obs.Metrics.Counter.t;
  m_clr_timeouts : Obs.Metrics.Counter.t;
  m_starvations : Obs.Metrics.Counter.t;
  m_malformed : Obs.Metrics.Counter.t;
  m_failovers : Obs.Metrics.Counter.t;
  m_rate : Obs.Metrics.Gauge.t;
}

let now t = t.env.Env.clock.Event_heap.cell_time

let jnl t ?severity ev = Obs.Sink.event t.obs ~time:(now t) ?severity t.scope ev

let min_rate t = float_of_int t.cfg.Config.packet_size /. 64.

let s_float t = float_of_int t.cfg.Config.packet_size

let rate_bytes_per_s t = t.rate

let clr t = match t.clr with None -> None | Some c -> Some c.clr_id

let clr_rate t = match t.clr with None -> None | Some c -> Some c.clr_rate

let in_slowstart t = t.in_ss

let round t = t.round

let round_duration t = t.round_duration

let max_rtt t = t.max_rtt

let packets_sent t = t.sent

let reports_received t = t.reports

let clr_changes t = t.clr_changes

let clr_timeouts t = t.clr_timeouts

let is_starved t = t.starved

let feedback_starvations t = t.starvations

let clr_failovers t = t.clr_failovers_n

(* NaN-safe: validation keeps NaN out of the inputs, but the rate is the
   one value that must never be poisoned, so the clamp itself is the last
   line of defence (Float.max propagates NaN). *)
let clamp_rate t x =
  if Float.is_nan x then min_rate t
  else Float.min t.cfg.Config.max_rate (Float.max (min_rate t) x)

(* ---------------------------------------------------------------- echoes *)

(* Reads the clock itself: a [~now] argument would be boxed on every
   data packet, echo or not. *)
let pop_echo t =
  match t.pending_echoes with
  | pe :: rest ->
      t.pending_echoes <- rest;
      Some
        { Wire.rx_id = pe.pe_rx; rx_ts = pe.pe_ts; echo_delay = now t -. pe.pe_arrival }
  | [] -> (
      match t.clr_echo with
      | Some pe ->
          Some
            { Wire.rx_id = pe.pe_rx; rx_ts = pe.pe_ts; echo_delay = now t -. pe.pe_arrival }
      | None -> None)

(* ------------------------------------------------------------ rate moves *)

let journal_rate_change t ~from_bps ~reason =
  if t.rate <> from_bps then
    jnl t ~severity:Obs.Journal.Debug
      (Obs.Journal.Rate_change { from_bps; to_bps = t.rate; reason })

let apply_decrease t new_rate =
  let from_bps = t.rate in
  t.rate <- clamp_rate t new_rate;
  t.last_rate_change <- now t;
  journal_rate_change t ~from_bps ~reason:"decrease"

(* Increase toward [desired], at most [increase_limit_packets] packets per
   RTT since the last change. *)
let apply_capped_increase t ~desired ~rtt =
  let now = now t in
  let dt = Float.max 0. (now -. t.last_rate_change) in
  let rtt = Float.max 1e-3 rtt in
  let cap =
    t.rate +. (Config.increase_limit_packets *. s_float t *. (dt /. rtt))
  in
  let from_bps = t.rate in
  t.rate <- clamp_rate t (Float.min desired cap);
  t.last_rate_change <- now;
  journal_rate_change t ~from_bps ~reason:"capped-increase"

(* -------------------------------------------------------------- the CLR *)

let set_clr t ~rx ~rtt ~rate_adj =
  let now = now t in
  (* Installing any CLR while the previous one is known lost completes a
     failover: the session found its new limiting receiver. *)
  if t.clr_lost then begin
    t.clr_lost <- false;
    t.clr_failovers_n <- t.clr_failovers_n + 1;
    Obs.Metrics.Counter.inc t.m_failovers
  end;
  (match t.clr with
  | Some c when c.clr_id = rx ->
      c.clr_rtt <- rtt;
      c.clr_rate <- rate_adj;
      c.clr_last_report <- now
  | Some c ->
      (* Remember the outgoing CLR for conservative switch-back (App. C). *)
      if t.cfg.Config.remember_clr then
        t.prev_clr <-
          Some
            {
              prev_id = c.clr_id;
              prev_rate = c.clr_rate;
              prev_until = now +. (Config.remember_clr_rtts *. Float.max c.clr_rtt 1e-3);
            };
      t.clr_changes <- t.clr_changes + 1;
      Obs.Metrics.Counter.inc t.m_clr_changes;
      jnl t (Obs.Journal.Clr_change { prev = c.clr_id; clr = rx });
      t.clr <- Some { clr_id = rx; clr_rtt = rtt; clr_rate = rate_adj; clr_last_report = now }
  | None ->
      t.clr_changes <- t.clr_changes + 1;
      Obs.Metrics.Counter.inc t.m_clr_changes;
      jnl t (Obs.Journal.Clr_change { prev = -1; clr = rx });
      t.clr <- Some { clr_id = rx; clr_rtt = rtt; clr_rate = rate_adj; clr_last_report = now })

let drop_clr t ~reason =
  (match t.clr with
  | Some c ->
      Hashtbl.remove t.rtt_table c.clr_id;
      t.clr_lost <- true;
      jnl t ~severity:Obs.Journal.Warn
        (Obs.Journal.Clr_drop { clr = c.clr_id; reason })
  | None -> ());
  t.clr <- None;
  t.clr_echo <- None

(* App. C: if the stored previous CLR's rate is lower than where the rate
   is heading, switch back to it without waiting for feedback. *)
let check_prev_clr t ~desired =
  match t.prev_clr with
  | Some p when now t <= p.prev_until ->
      if desired > p.prev_rate then begin
        (match t.clr with
        | Some c ->
            set_clr t ~rx:p.prev_id ~rtt:c.clr_rtt ~rate_adj:p.prev_rate
        | None -> set_clr t ~rx:p.prev_id ~rtt:t.cfg.Config.rtt_initial ~rate_adj:p.prev_rate);
        t.prev_clr <- None;
        p.prev_rate
      end
      else desired
  | Some _ ->
      t.prev_clr <- None;
      desired
  | None -> desired

(* --------------------------------------------------------------- reports *)

let sender_side_rtt t ~echo_ts ~echo_delay =
  let sample = now t -. echo_ts -. echo_delay in
  if Float.is_nan sample || sample <= 0. then None else Some sample

let on_report t ~rx ~ts ~echo_ts ~echo_delay ~rate ~have_rtt ~rtt ~p:_ ~x_recv
    ~round:report_round ~has_loss ~leaving =
  let now = now t in
  t.reports <- t.reports + 1;
  Obs.Metrics.Counter.inc t.m_reports;
  (* Any validated report proves the feedback channel is alive: leave the
     starved state (the decayed rate recovers through the normal capped
     increase once a CLR re-establishes itself). *)
  t.last_report_arrival <- now;
  t.starved <- false;
  if leaving then begin
    Hashtbl.remove t.rtt_table rx;
    match t.clr with
    | Some c when c.clr_id = rx ->
        (* The limiting receiver left: drop it and let the capped ramp
           find the next CLR. *)
        drop_clr t ~reason:"leave";
        t.clr_timeouts <- t.clr_timeouts + 1;
        Obs.Metrics.Counter.inc t.m_clr_timeouts
    | _ -> ()
  end
  else begin
    (* Sender-side RTT: used to rescale rate reports that were computed
       with the initial RTT (§2.4.4). *)
    let rtt_sender = sender_side_rtt t ~echo_ts ~echo_delay in
    let rtt_best =
      if have_rtt then rtt else Option.value rtt_sender ~default:rtt
    in
    (* R_max must reflect the RTT the receiver itself operates with: a
       receiver still using the 500 ms initial estimate draws feedback
       timers from it, so rounds must stay that long until it has a real
       measurement (paper footnote 7).  [rtt] is the receiver's own
       current estimate. *)
    let rtt_for_rmax = if have_rtt then rtt else Float.max rtt rtt_best in
    Hashtbl.replace t.rtt_table rx (rtt_for_rmax, now);
    let rate_adj =
      if has_loss && not have_rtt then
        match rtt_sender with
        | Some r when r > 0. -> rate *. rtt /. r  (* X ∝ 1/R *)
        | Some _ | None -> rate
      else rate
    in
    (* Cross-receiver outlier screen: a report whose rate is a low
       outlier against the group's recent reports must not lower the
       rate, capture the CLR, or be echoed as the round minimum (the
       echo drives receiver-side suppression, which is exactly what an
       understater wants to monopolize). *)
    let admitted =
      match t.defense with
      | None -> true
      | Some d ->
          Defense.admit d ~now ~round_duration:t.round_duration
            ~sender_rate:t.rate ~rx ~rate:rate_adj
    in
    (* CLR candidacy additionally needs a track record (an earlier
       admitted report) and a clean quarantine history — a brand-new or
       just-released receiver may inform the rate but not lead it. *)
    let leads =
      admitted
      &&
      match t.defense with
      | None -> true
      | Some d -> Defense.may_lead d ~now ~round_duration:t.round_duration rx
    in
    (* Track the lowest report of this round for suppression echoing.
       Loss reports dominate slowstart receive-rate reports. *)
    (if admitted then
       let candidate =
         { Wire.fb_rx_id = rx; fb_rate = rate_adj; fb_has_loss = has_loss }
       in
       match t.round_fb with
       | None -> t.round_fb <- Some candidate
       | Some cur ->
           let better =
             if has_loss <> cur.Wire.fb_has_loss then has_loss
             else rate_adj < cur.Wire.fb_rate
           in
           if better then t.round_fb <- Some candidate);
    (* Slowstart bookkeeping. *)
    if t.in_ss then begin
      if has_loss then begin
        if leads then begin
          (* First loss ends slowstart (§2.6). *)
          t.in_ss <- false;
          set_clr t ~rx ~rtt:rtt_best ~rate_adj;
          apply_decrease t (Float.min t.rate rate_adj);
          jnl t (Obs.Journal.Slowstart_exit { rate_bps = t.rate })
        end
      end
      else begin
        (* No-loss slowstart election needs only [admitted], not the
           track-record gate: a forged-low receive rate is already
           caught by the outlier screen, and gating the bootstrap
           election on a track record would starve the very first
           rounds (under suppression most receivers speak here for the
           first time). *)
        if admitted && x_recv < t.ss_min_xrecv then begin
          t.ss_min_xrecv <- x_recv;
          set_clr t ~rx ~rtt:rtt_best ~rate_adj:x_recv
        end
        else begin
          match t.clr with
          | Some c when c.clr_id = rx ->
              c.clr_last_report <- now;
              c.clr_rtt <- rtt_best;
              (* CLR's fresh receive rate drives the target. *)
              if admitted then t.ss_min_xrecv <- x_recv
          | _ -> ()
        end;
        (* Until some report was allowed to set the minimum, there is no
           evidence to raise the target on. *)
        if t.ss_min_xrecv < infinity then begin
          let proposed =
            clamp_rate t
              (Config.slowstart_multiplier *. Float.max 1. t.ss_min_xrecv)
          in
          let prev_target = t.ss_target in
          if proposed < t.ss_target then t.ss_target <- proposed
          else if report_round > t.ss_round then begin
            t.ss_round <- report_round;
            t.ss_target <- proposed
          end;
          if t.ss_target <> prev_target then
            jnl t ~severity:Obs.Journal.Debug
              (Obs.Journal.Rate_change
                 {
                   from_bps = prev_target;
                   to_bps = t.ss_target;
                   reason = "slowstart-target";
                 })
        end
      end
    end
    else begin
      (* Congestion-avoidance rate control. *)
      match t.clr with
      | None ->
          (* Failover install: no current CLR, so no flap damping — but
             the outlier screen and the track-record gate still apply (a
             vacant election is the understater's favourite moment to
             volunteer). *)
          if has_loss && leads then begin
            set_clr t ~rx ~rtt:rtt_best ~rate_adj;
            if rate_adj < t.rate then apply_decrease t rate_adj
            else apply_capped_increase t ~desired:(check_prev_clr t ~desired:rate_adj) ~rtt:rtt_best
          end
      | Some c ->
          if rx = c.clr_id then begin
            c.clr_last_report <- now;
            (* A non-admitted CLR report (low outlier) keeps the CLR
               alive but moves nothing: a turncoat CLR can freeze the
               rate, never crash it. *)
            if admitted then begin
              c.clr_rtt <- rtt_best;
              c.clr_rate <- rate_adj;
              if rate_adj < t.rate then apply_decrease t rate_adj
              else begin
                let desired = check_prev_clr t ~desired:rate_adj in
                apply_capped_increase t ~desired ~rtt:rtt_best
              end
            end
          end
          else if has_loss && rate_adj < t.rate then begin
            (* A lower-rate receiver takes over as CLR — subject to the
               outlier screen and flap damping (hysteresis + hold-down). *)
            let allowed =
              leads
              &&
              match t.defense with
              | None -> true
              | Some d ->
                  Defense.may_switch d ~now ~sender_rate:t.rate
                    ~candidate_rate:rate_adj ~rx
            in
            if allowed then begin
              (match t.defense with
              | Some d ->
                  Defense.note_switch d ~now ~round_duration:t.round_duration
              | None -> ());
              set_clr t ~rx ~rtt:rtt_best ~rate_adj;
              apply_decrease t rate_adj
            end
          end
    end;
    (* Echo scheduling. *)
    let is_new_clr = match t.clr with Some c -> c.clr_id = rx | None -> false in
    let pe_class =
      if is_new_clr && (match t.clr_echo with Some e -> e.pe_rx <> rx | None -> true)
      then class_new_clr
      else if not have_rtt then class_no_rtt
      else if match t.clr with Some c -> c.clr_id = rx | None -> false then class_clr
      else class_non_clr
    in
    let pe = { pe_rx = rx; pe_ts = ts; pe_arrival = now; pe_class; pe_rate = rate_adj } in
    (* One pending echo per receiver: the newest report wins. *)
    if pe_class = class_clr then t.clr_echo <- Some pe
    else t.pending_echoes <- Echo_queue.insert t.pending_echoes pe;
    if is_new_clr then t.clr_echo <- Some pe
  end

(* ---------------------------------------------------------------- rounds *)

let check_clr_timeout t =
  match t.clr with
  | Some c
    when now t -. c.clr_last_report
         > Config.clr_timeout_rounds *. t.round_duration ->
      jnl t ~severity:Obs.Journal.Warn (Obs.Journal.Timeout { what = "clr" });
      drop_clr t ~reason:"timeout";
      t.clr_timeouts <- t.clr_timeouts + 1;
      Obs.Metrics.Counter.inc t.m_clr_timeouts
  | _ -> ()

(* Total feedback starvation (paper's feedback-timeout rule, extended to
   the no-feedback-at-all case): when not a single receiver has been
   heard for [starvation_rounds] rounds — partition, dead return path,
   everyone crashed — the last-reported rate is stale and free-running at
   it (or worse, ramping) would dump traffic into a black hole.  Decay
   multiplicatively once per round down to the one-packet floor; any
   valid report ends the state immediately. *)
let check_starvation t =
  let now = now t in
  if now -. t.last_report_arrival
     > Config.starvation_rounds *. t.round_duration
  then begin
    if not t.starved then begin
      t.starved <- true;
      t.starvations <- t.starvations + 1;
      Obs.Metrics.Counter.inc t.m_starvations;
      jnl t ~severity:Obs.Journal.Warn
        (Obs.Journal.Starvation { rate_bps = t.rate });
      (* Growth phases assume a live feedback loop. *)
      t.in_ss <- false;
      (* Starvation subsumes the CLR timeout: silence from everyone
         includes the CLR, and waiting the full clr_timeout_rounds is
         futile once rounds stretch with the decaying rate.  Dropping it
         here makes the data header advertise clr = -1, which is what
         tells surviving receivers to volunteer — the failover path. *)
      match t.clr with
      | Some _ ->
          drop_clr t ~reason:"starvation";
          t.clr_timeouts <- t.clr_timeouts + 1;
          Obs.Metrics.Counter.inc t.m_clr_timeouts
      | None -> ()
    end;
    let from_bps = t.rate in
    t.rate <- clamp_rate t (t.rate *. Config.starvation_decay);
    t.ss_target <- Float.min t.ss_target t.rate;
    t.last_rate_change <- now;
    journal_rate_change t ~from_bps ~reason:"starvation-decay"
  end

let rec start_round t =
  t.round_timer <- None;
  if t.running then begin
    let now = now t in
    t.round <- t.round + 1;
    t.round_started <- now;
    t.round_fb <- None;
    (* R_max: the maximum RTT over receivers heard from within the last
       two rounds, falling back to the initial value when nobody
       (recently) reported.  Stale entries are evicted so a departed
       slow receiver stops inflating the round duration. *)
    let horizon = now -. (2. *. t.round_duration) in
    let stale =
      Hashtbl.fold
        (fun rx (_, seen) acc -> if seen < horizon then rx :: acc else acc)
        t.rtt_table []
    in
    List.iter (Hashtbl.remove t.rtt_table) stale;
    let observed =
      Hashtbl.fold (fun _ (rtt, _) acc -> Float.max rtt acc) t.rtt_table 0.
    in
    t.max_rtt <- (if observed > 0. then observed else t.cfg.Config.rtt_initial);
    t.round_duration <-
      Feedback_timer.round_duration_clamped
        ~on_anomaly:(fun () -> Env.clock_anomaly t.env ~kind:"late-timer")
        ~cfg:t.cfg ~max_rtt:t.max_rtt ~rate:t.rate;
    jnl t ~severity:Obs.Journal.Debug
      (Obs.Journal.Round_start
         { round = t.round; duration = t.round_duration; max_rtt = t.max_rtt });
    (match t.defense with
    | Some d ->
        Defense.on_round d ~now ~round_duration:t.round_duration
          ~sender_rate:t.rate
    | None -> ());
    check_clr_timeout t;
    check_starvation t;
    t.round_timer <-
      Some (t.env.Env.after ~delay:t.round_duration (fun () -> start_round t))
  end

(* --------------------------------------------------------------- pacing *)

let send_packet t ~gen =
  if t.running && gen = t.pacing_gen then begin
    let now = now t in
    (* Slowstart ramp: approach the target over roughly one RTT. *)
    (if t.in_ss && t.ss_target > 0. then begin
       let rtt = Float.max 1e-3 t.max_rtt in
       let dt = float_of_int t.cfg.Config.packet_size /. Float.max t.rate 1. in
       if t.ss_target < t.rate then t.rate <- clamp_rate t t.ss_target
       else begin
         let step = (t.ss_target -. t.rate) *. Float.min 1. (dt /. rtt) in
         t.rate <- clamp_rate t (t.rate +. step)
       end
     end
     else if (not t.in_ss) && t.clr = None && not t.starved then begin
       (* No CLR (timeout/leave) but feedback is flowing: ramp up at the
          capped rate until a receiver objects and becomes CLR.  While
          starved the rate only decays (see check_starvation). *)
       let rtt = Float.max 1e-3 t.max_rtt in
       let dt = float_of_int t.cfg.Config.packet_size /. Float.max t.rate 1. in
       t.rate <-
         clamp_rate t
           (t.rate +. (Config.increase_limit_packets *. s_float t *. (dt /. rtt)))
     end);
    let msg =
      Wire.Data
        {
          session = t.session;
          seq = t.seq;
          ts = now;
          rate = t.rate;
          round = t.round;
          round_duration = t.round_duration;
          max_rtt = t.max_rtt;
          clr = (match t.clr with Some c -> c.clr_id | None -> -1);
          in_slowstart = t.in_ss;
          echo = pop_echo t;
          fb = t.round_fb;
          app = -1;
        }
    in
    t.seq <- t.seq + 1;
    t.sent <- t.sent + 1;
    Obs.Metrics.Counter.inc t.m_sent;
    Obs.Metrics.Gauge.set t.m_rate t.rate;
    t.env.Env.send ~dest:Env.To_group ~flow:t.session
      ~size:t.cfg.Config.packet_size msg;
    (* +-25% pacing jitter: breaks deterministic phase-locking between
       the paced flow and drop-tail queue service (the classic simulator
       phase effect that would otherwise concentrate drops on the paced
       flow). *)
    let jitter = 0.75 +. (0.5 *. Stats.Rng.uniform t.rng) in
    let delay = jitter *. float_of_int t.cfg.Config.packet_size /. t.rate in
    t.env.Env.after_unit ~delay t.pacing_cb
  end

let create ~env ~cfg ~session ?initial_rate () =
  (match Config.validate cfg with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Sender.create: bad config: " ^ msg));
  let initial_rate =
    Option.value initial_rate
      ~default:(float_of_int cfg.Config.packet_size /. cfg.Config.rtt_initial)
  in
  let obs = env.Env.obs in
  let metrics = obs.Obs.Sink.metrics in
  let labels = [ ("session", string_of_int session) ] in
  {
    env;
    cfg;
    session;
    rng = env.Env.split_rng ();
    running = false;
    rate = initial_rate;
    in_ss = true;
    ss_target = initial_rate;
    ss_min_xrecv = infinity;
    ss_round = -1;
    seq = 0;
    round = -1;
    round_duration = cfg.Config.rtt_initial *. Config.round_rtt_factor;
    round_started = 0.;
    max_rtt = cfg.Config.rtt_initial;
    rtt_table = Hashtbl.create 64;
    clr = None;
    prev_clr = None;
    round_fb = None;
    pending_echoes = [];
    clr_echo = None;
    last_rate_change = 0.;
    pacing_gen = 0;
    pacing_cb = ignore;  (* installed by [start] *)
    round_timer = None;
    sent = 0;
    reports = 0;
    clr_changes = 0;
    clr_timeouts = 0;
    last_report_arrival = 0.;
    starved = false;
    starvations = 0;
    clr_lost = false;
    clr_failovers_n = 0;
    defense =
      (if cfg.Config.defense_enabled then
         Some (Defense.create ~cfg ~obs ~session ~node:env.Env.id ())
       else None);
    obs;
    scope = Obs.Journal.scope ~session ~node:env.Env.id "tfmcc.sender";
    m_sent = Obs.Metrics.counter metrics ~labels "tfmcc_sender_packets_sent_total";
    m_reports = Obs.Metrics.counter metrics ~labels "tfmcc_sender_reports_total";
    m_clr_changes =
      Obs.Metrics.counter metrics ~labels "tfmcc_sender_clr_changes_total";
    m_clr_timeouts =
      Obs.Metrics.counter metrics ~labels "tfmcc_sender_clr_timeouts_total";
    m_starvations =
      Obs.Metrics.counter metrics ~labels "tfmcc_sender_starvations_total";
    m_malformed =
      Obs.Metrics.counter metrics ~labels "tfmcc_sender_malformed_drops_total";
    m_failovers =
      Obs.Metrics.counter metrics ~labels "tfmcc_sender_clr_failovers_total";
    m_rate = Obs.Metrics.gauge metrics ~labels "tfmcc_sender_rate_bytes_per_s";
  }

let deliver_report t (r : Wire.report) =
  if r.Wire.session = t.session then begin
      if t.running then begin
        (* Field validation plus round staleness: a report more than
           the CLR timeout behind the current round carries dead
           state (a receiver that far out of sync is about to be
           timed out anyway) and must not refresh the CLR. *)
        let stale_limit =
          int_of_float (Float.ceil Config.clr_timeout_rounds)
        in
        if
          Wire.report_fields_valid ~rx_id:r.rx_id ~ts:r.ts ~echo_ts:r.echo_ts
            ~echo_delay:r.echo_delay ~rate:r.rate ~rtt:r.rtt ~p:r.p
            ~x_recv:r.x_recv ~round:r.round
          && r.round >= t.round - stale_limit
        then begin
          (* Plausibility screen (DESIGN.md §10).  Leave reports are
             exempt: they carry no rate influence, and refusing a
             goodbye only delays the CLR timeout. *)
          let defense_drop =
            match t.defense with
            | None -> false
            | Some _ when r.leaving -> false
            | Some d ->
                let is_clr =
                  match t.clr with
                  | Some c -> c.clr_id = r.rx_id
                  | None -> false
                in
                let rtt_sample =
                  sender_side_rtt t ~echo_ts:r.echo_ts ~echo_delay:r.echo_delay
                in
                let rejected =
                  Defense.screen d ~now:(now t)
                    ~round_duration:t.round_duration ~sender_rate:t.rate
                    ~sender_round:t.round ~rx:r.rx_id ~rate:r.rate
                    ~have_rtt:r.have_rtt ~rtt:r.rtt ~p:r.p ~x_recv:r.x_recv
                    ~has_loss:r.has_loss ~echo_delay:r.echo_delay ~rtt_sample
                    ~is_clr
                  <> None
                in
                (* A CLR that lands in quarantine cannot be waited
                   out: every report it sends is now dropped, so the
                   usual CLR timeout would freeze the rate at the
                   captured value for its whole duration.  Drop it
                   immediately and let failover re-elect. *)
                if
                  rejected && is_clr
                  && Defense.is_quarantined d ~now:(now t) r.rx_id
                then begin
                  drop_clr t ~reason:"quarantine";
                  t.clr_timeouts <- t.clr_timeouts + 1;
                  Obs.Metrics.Counter.inc t.m_clr_timeouts
                end;
                rejected
          in
          if not defense_drop then
            on_report t ~rx:r.rx_id ~ts:r.ts ~echo_ts:r.echo_ts
              ~echo_delay:r.echo_delay ~rate:r.rate ~have_rtt:r.have_rtt
              ~rtt:r.rtt ~p:r.p ~x_recv:r.x_recv ~round:r.round
              ~has_loss:r.has_loss ~leaving:r.leaving
        end
        else begin
          Obs.Metrics.Counter.inc t.m_malformed;
          jnl t ~severity:Obs.Journal.Warn
            (Obs.Journal.Malformed_drop { what = "report-fields" })
        end
      end
  end
  else if t.running then begin
    (* Unknown session id: never let it near this sender's state. *)
    Obs.Metrics.Counter.inc t.m_malformed;
    jnl t ~severity:Obs.Journal.Warn
      (Obs.Journal.Malformed_drop { what = "unknown-session" })
  end

let start t ~at =
  t.running <- true;
  t.pacing_gen <- t.pacing_gen + 1;
  let gen = t.pacing_gen in
  t.pacing_cb <- (fun () -> send_packet t ~gen);
  ignore
    (t.env.Env.at ~time:at (fun () ->
         t.last_rate_change <- now t;
         t.last_report_arrival <- now t;
         start_round t;
         send_packet t ~gen))

let stop t =
  t.running <- false;
  t.pacing_gen <- t.pacing_gen + 1;
  t.round_timer <- Env.cancel_opt t.round_timer
