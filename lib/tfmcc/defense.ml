(* Adversarial-receiver defense layer (DESIGN.md §10).

   All state is sender-side and per-session.  The layer answers three
   questions about an inbound, field-valid receiver report:

   1. [screen]  — is the report even physically/self-consistently
      possible?  (TCP-equation consistency at the claimed (rtt, p),
      claimed RTT against the sender-side echo floor, claimed x_recv
      against the sending rate, echo-delay bound, per-round spam limit,
      quarantine.)
   2. [admit]   — is its rate statistically compatible with what the
      rest of the group recently reported?  (median/MAD screen in log10
      space, with a ratio fallback below quorum.)  Non-admitted reports
      must not lower the rate or capture the CLR.
   3. [may_switch] — even if admissible, is a CLR *switch* allowed right
      now?  (hysteresis + exponential hold-down flap damping.)

   Receivers that repeatedly fail 1 or 2 accumulate suspicion (decayed
   once per feedback round) and are quarantined outright once it crosses
   the threshold. *)

type reject =
  | Quarantined
  | Spam
  | Implausible_rtt
  | Implausible_rate
  | Implausible_xrecv
  | Implausible_echo_delay

let reject_name = function
  | Quarantined -> "quarantined"
  | Spam -> "spam"
  | Implausible_rtt -> "implausible-rtt"
  | Implausible_rate -> "implausible-rate"
  | Implausible_xrecv -> "implausible-xrecv"
  | Implausible_echo_delay -> "implausible-echo-delay"

type rx_state = {
  mutable suspicion : float;
  mutable quarantined_until : float;
  mutable round_reports : int;  (* reports seen in [round_of_count] *)
  mutable round_of_count : int;
  mutable first_seen : float;  (* time of the first screened report ever *)
  mutable last_seen : float;  (* time of the last screened report *)
  mutable rate_log : float;  (* log10 of the last admitted rate *)
  mutable last_admitted : float;  (* time of the last admitted report *)
  mutable probation_until : float;  (* no CLR candidacy after quarantine *)
  mutable quarantine_count : int;
  mutable in_window : bool;
}

(* Sending-rate ceiling over the last few rounds: x_recv claims are
   checked against the highest recent rate, not the instantaneous one, so
   an honest receiver still draining a pre-decrease burst is not flagged. *)
let ceiling_rounds = 4

type t = {
  cfg : Config.t;
  states : (int, rx_state) Hashtbl.t;
  recent_rates : float array;  (* per-round sending-rate ring *)
  mutable recent_idx : int;
  mutable holddown_until : float;
  mutable holddown_rounds : float;
  mutable last_switch : float;
  obs : Obs.Sink.t;
  scope : Obs.Journal.scope;
  m_implausible : Obs.Metrics.Counter.t;
  m_outliers : Obs.Metrics.Counter.t;
  m_spam : Obs.Metrics.Counter.t;
  m_quarantined_drops : Obs.Metrics.Counter.t;
  m_quarantines : Obs.Metrics.Counter.t;
  m_damped : Obs.Metrics.Counter.t;
}

let create ~cfg ~obs ~session ~node () =
  let metrics = obs.Obs.Sink.metrics in
  let labels = [ ("session", string_of_int session) ] in
  {
    cfg;
    states = Hashtbl.create 64;
    recent_rates = Array.make ceiling_rounds 0.;
    recent_idx = 0;
    holddown_until = neg_infinity;
    holddown_rounds = Config.defense_holddown_rounds;
    last_switch = neg_infinity;
    obs;
    scope = Obs.Journal.scope ~session ~node "tfmcc.defense";
    m_implausible =
      Obs.Metrics.counter metrics ~labels "tfmcc_defense_implausible_total";
    m_outliers = Obs.Metrics.counter metrics ~labels "tfmcc_defense_outliers_total";
    m_spam = Obs.Metrics.counter metrics ~labels "tfmcc_defense_spam_drops_total";
    m_quarantined_drops =
      Obs.Metrics.counter metrics ~labels "tfmcc_defense_quarantined_drops_total";
    m_quarantines =
      Obs.Metrics.counter metrics ~labels "tfmcc_defense_quarantines_total";
    m_damped =
      Obs.Metrics.counter metrics ~labels "tfmcc_defense_clr_damped_total";
  }

let jnl t ~now ?severity ev =
  Obs.Sink.event t.obs ~time:now ?severity t.scope ev

let state t rx =
  match Hashtbl.find_opt t.states rx with
  | Some s -> s
  | None ->
      let s =
        {
          suspicion = 0.;
          quarantined_until = neg_infinity;
          round_reports = 0;
          round_of_count = min_int;
          first_seen = infinity;
          last_seen = neg_infinity;
          rate_log = 0.;
          last_admitted = neg_infinity;
          probation_until = neg_infinity;
          quarantine_count = 0;
          in_window = false;
        }
      in
      Hashtbl.add t.states rx s;
      s

let is_quarantined t ~now rx =
  match Hashtbl.find_opt t.states rx with
  | Some s -> now < s.quarantined_until
  | None -> false

let suspicion t rx =
  match Hashtbl.find_opt t.states rx with Some s -> s.suspicion | None -> 0.

(* One point of suspicion per rejected report; quarantine at the
   threshold.  The score decays per round (see [on_round]) so sporadic
   honest anomalies wash out while a sustained attacker does not. *)
let suspect t ~now ~round_duration rx =
  let s = state t rx in
  s.suspicion <- s.suspicion +. 1.;
  if s.suspicion >= Config.defense_suspicion_threshold
     && now >= s.quarantined_until
  then begin
    let until_ =
      now +. (Config.defense_quarantine_rounds *. round_duration)
    in
    s.quarantined_until <- until_;
    (* After release the receiver may report again, but it stays barred
       from CLR candidacy for a probation that doubles with every repeat
       offense — a cyclic attacker gets one capture attempt per
       exponentially growing interval, not one per quarantine. *)
    s.quarantine_count <- s.quarantine_count + 1;
    let scale = Float.of_int (1 lsl Stdlib.min 16 (s.quarantine_count - 1)) in
    s.probation_until <-
      until_
      +. (scale *. Config.defense_quarantine_rounds *. round_duration);
    s.suspicion <- 0.;
    s.in_window <- false;
    Obs.Metrics.Counter.inc t.m_quarantines;
    jnl t ~now ~severity:Obs.Journal.Warn (Obs.Journal.Quarantine { rx; until_ })
  end

let reject t ~now ~round_duration ~rx ~counter what =
  (match counter with
  | `Implausible ->
      Obs.Metrics.Counter.inc t.m_implausible;
      suspect t ~now ~round_duration rx
  | `Spam ->
      Obs.Metrics.Counter.inc t.m_spam;
      suspect t ~now ~round_duration rx
  | `Quarantined ->
      Obs.Metrics.Counter.inc t.m_quarantined_drops
  | `Outlier ->
      Obs.Metrics.Counter.inc t.m_outliers;
      suspect t ~now ~round_duration rx);
  jnl t ~now ~severity:Obs.Journal.Warn
    (Obs.Journal.Defense_reject { rx; what = reject_name what });
  Some what

(* ------------------------------------------------------------ screening *)

let rate_ceiling t ~sender_rate =
  Array.fold_left Float.max sender_rate t.recent_rates

let screen t ~now ~round_duration ~sender_rate ~sender_round ~rx ~rate
    ~have_rtt ~rtt ~p ~x_recv ~has_loss ~echo_delay ~rtt_sample ~is_clr =
  let cfg = t.cfg in
  let s = state t rx in
  if s.first_seen = infinity then s.first_seen <- now;
  if now < s.quarantined_until then
    reject t ~now ~round_duration ~rx ~counter:`Quarantined Quarantined
  else begin
    (* Spam limit.  A non-CLR honest receiver reports at most about once
       per round, so it gets a small per-round budget.  The CLR
       legitimately reports once per *its own* RTT — which early in a
       session can be many times per round (the round length starts from
       a conservative initial RTT) — so a per-round count would quarantine
       an honest CLR.  Instead the CLR's reports must be spaced at least
       half its RTT apart, taking the largest RTT estimate available
       (sender-side echo sample, claimed RTT, or one round-trip's share of
       the feedback round) so a forged low estimate cannot widen the
       budget. *)
    if s.round_of_count <> sender_round then begin
      s.round_of_count <- sender_round;
      s.round_reports <- 0
    end;
    s.round_reports <- s.round_reports + 1;
    let prev_seen = s.last_seen in
    s.last_seen <- now;
    let spamming =
      if is_clr then begin
        let rtt_est =
          let candidates =
            (match rtt_sample with Some r when r > 0. -> [ r ] | _ -> [])
            @ (if have_rtt && rtt > 0. then [ rtt ] else [])
          in
          match candidates with
          | [] -> round_duration /. Config.round_rtt_factor
          | l -> List.fold_left Float.max 0. l
        in
        now -. prev_seen < 0.5 *. rtt_est
      end
      else s.round_reports > Config.defense_max_reports_per_round
    in
    if spamming then reject t ~now ~round_duration ~rx ~counter:`Spam Spam
    else if
      (* Claimed echo hold time far beyond a feedback round defeats the
         RTT floor below; honest receivers echo the newest data packet. *)
      echo_delay > Config.defense_echo_delay_rounds *. round_duration
    then
      reject t ~now ~round_duration ~rx ~counter:`Implausible
        Implausible_echo_delay
    else if
      (* Physical RTT floor: now - echo_ts - echo_delay is a round trip
         the network actually performed; a claimed RTT far below it is a
         lie (a receiver cannot echo a timestamp before receiving it). *)
      have_rtt
      && (match rtt_sample with
         | Some sample -> rtt < Config.defense_rtt_floor_fraction *. sample
         | None -> false)
    then reject t ~now ~round_duration ~rx ~counter:`Implausible Implausible_rtt
    else if
      (* Nobody receives faster than the sender recently sent. *)
      x_recv > Config.defense_xrecv_slack *. rate_ceiling t ~sender_rate
    then
      reject t ~now ~round_duration ~rx ~counter:`Implausible Implausible_xrecv
    else if
      (* Equation consistency: an honest loss report's calculated rate
         IS the TCP model evaluated at its own claimed (rtt, p). *)
      has_loss && have_rtt
      && (p <= 0.
         ||
         let expected =
           Tcp_model.Padhye.throughput ~b:cfg.Config.b
             ~s:cfg.Config.packet_size ~rtt p
         in
         let k = Config.defense_equation_slack in
         rate > k *. expected || rate *. k < expected)
    then reject t ~now ~round_duration ~rx ~counter:`Implausible Implausible_rate
    else None
  end

(* -------------------------------------------------------- outlier screen *)

let log_rate r = log10 (Float.max 1. r)

(* Median/MAD of the admitted-report window in log10 space.  Returns
   [None] below quorum. *)
let window_stats t ~now ~round_duration =
  let horizon =
    now -. (Config.defense_report_horizon_rounds *. round_duration)
  in
  let logs =
    Hashtbl.fold
      (fun _ s acc ->
        if s.in_window && s.last_admitted >= horizon then s.rate_log :: acc
        else acc)
      t.states []
  in
  if List.length logs < Config.defense_mad_min_reports then None
  else begin
    let arr = Array.of_list logs in
    let med = Stats.Descriptive.median arr in
    let dev = Array.map (fun x -> Float.abs (x -. med)) arr in
    let mad =
      Float.max Config.defense_mad_floor (Stats.Descriptive.median dev)
    in
    Some (med, mad)
  end

(* Admit a screened report into the reference window — unless its rate is
   a low outlier against the group, in which case the caller must not let
   it lower the rate or capture the CLR.  The current CLR is subject to
   the test like everyone else: a receiver that turns hostile *after*
   winning the election must not be able to drag the group further than
   the outlier band either. *)
let admit t ~now ~round_duration ~sender_rate ~rx ~rate =
  let s = state t rx in
  let lr = log_rate rate in
  let outlier =
    match window_stats t ~now ~round_duration with
    | Some (med, mad) -> med -. lr > Config.defense_mad_threshold *. mad
    | None ->
        (* Below quorum: fall back to a coarse ratio test against the
           recent sending rate — the one number the sender knows the
           group genuinely sustained. *)
        rate *. Config.defense_drop_ratio < rate_ceiling t ~sender_rate
  in
  if outlier then begin
    ignore (reject t ~now ~round_duration ~rx ~counter:`Outlier Implausible_rate);
    false
  end
  else begin
    s.rate_log <- lr;
    s.last_admitted <- now;
    s.in_window <- true;
    true
  end

(* Track-record gate on CLR candidacy: leading the session requires
   first contact at least most of a round ago, plus a clean
   quarantine/probation record.  A brand-new receiver cannot capture
   the CLR with its first utterance; the price for honest newcomers is
   one extra feedback round before they can redirect the session.  Age
   is measured from first contact, not from an earlier admitted report:
   under feedback suppression an honest receiver may well be speaking
   for the very first time when it volunteers. *)
let may_lead t ~now ~round_duration rx =
  let s = state t rx in
  now >= s.quarantined_until
  && now >= s.probation_until
  && s.first_seen <= now -. (0.9 *. round_duration)

(* ---------------------------------------------------------- flap damping *)

(* Hysteresis: a takeover must undercut the current rate by a real
   margin.  Hold-down: switches inside the hold-down window are damped;
   each accepted switch that lands inside the previous window doubles the
   next hold-down (capped), so an oscillating attacker is frozen out
   exponentially while a stable group pays one round of latency. *)
let may_switch t ~now ~sender_rate ~candidate_rate ~rx =
  if candidate_rate >= (1. -. Config.defense_clr_hysteresis) *. sender_rate
  then begin
    Obs.Metrics.Counter.inc t.m_damped;
    jnl t ~now (Obs.Journal.Clr_damped { rx });
    false
  end
  else if now < t.holddown_until then begin
    Obs.Metrics.Counter.inc t.m_damped;
    jnl t ~now (Obs.Journal.Clr_damped { rx });
    false
  end
  else true

let note_switch t ~now ~round_duration =
  let base = Config.defense_holddown_rounds in
  (* Inside the previous hold-down's *span* (i.e. switches coming as fast
     as damping allows): escalate.  Quiet since then: relax to base. *)
  let span = t.holddown_rounds *. round_duration in
  if now -. t.last_switch <= 2. *. span then
    t.holddown_rounds <-
      Float.min Config.defense_holddown_max_rounds (2. *. t.holddown_rounds)
  else t.holddown_rounds <- base;
  t.last_switch <- now;
  t.holddown_until <- now +. (t.holddown_rounds *. round_duration)

(* -------------------------------------------------------------- rounds *)

let on_round t ~now ~round_duration ~sender_rate =
  t.recent_rates.(t.recent_idx) <- sender_rate;
  t.recent_idx <- (t.recent_idx + 1) mod ceiling_rounds;
  let horizon =
    now -. (Config.defense_report_horizon_rounds *. round_duration)
  in
  Hashtbl.iter
    (fun _ s ->
      s.suspicion <- s.suspicion *. Config.defense_suspicion_decay;
      if s.last_admitted < horizon then s.in_window <- false)
    t.states
