(* Unit tests for the TFMCC core: configuration, feedback timers, RTT
   estimation, the abstract feedback process and the scaling model. *)

let check_float = Alcotest.(check (float 1e-9))

let cfg = Tfmcc_core.Config.default

(* --------------------------------------------------------------- Config *)

let test_default_valid () =
  match Tfmcc_core.Config.validate cfg with
  | Ok () -> ()
  | Error e -> Alcotest.failf "default config invalid: %s" e

let test_validate_catches_bad () =
  let bad name fields =
    match Tfmcc_core.Config.validate fields with
    | Ok () -> Alcotest.failf "%s accepted" name
    | Error _ -> ()
  in
  bad "packet_size 0" { cfg with packet_size = 0 };
  bad "rtt_initial -1" { cfg with rtt_initial = -1. };
  bad "zeta 1.5" { cfg with zeta = 1.5 };
  (* NaN is false under every comparison, so each float range check
     must test finiteness first. *)
  List.iter
    (fun (v, label) ->
      bad ("rtt_initial " ^ label) { cfg with rtt_initial = v };
      bad ("zeta " ^ label) { cfg with zeta = v };
      bad ("b " ^ label) { cfg with b = v };
      bad ("max_rate " ^ label) { cfg with max_rate = v })
    [ (Float.nan, "nan"); (Float.infinity, "inf"); (Float.neg_infinity, "-inf") ]

let test_default_follows_paper () =
  Alcotest.(check int) "s = 1000" 1000 cfg.packet_size;
  Alcotest.(check int) "8 loss intervals" 8 cfg.n_intervals;
  check_float "initial RTT 500ms" 0.5 cfg.rtt_initial;
  check_float "CLR EWMA 0.05" 0.05 Tfmcc_core.Config.ewma_clr;
  check_float "non-CLR EWMA 0.5" 0.5 Tfmcc_core.Config.ewma_other;
  Alcotest.(check int) "N = 10000" 10_000 Tfmcc_core.Config.n_estimate;
  check_float "zeta = 0.1" 0.1 cfg.zeta;
  check_float "suppression window = 4 RTTs" 4.
    ((1. -. Tfmcc_core.Config.fb_delta) *. Tfmcc_core.Config.round_rtt_factor)

(* ------------------------------------------------------- Feedback_timer *)

let draw_many ~bias ~ratio ~n =
  let rng = Stats.Rng.create 99 in
  Array.init n (fun _ ->
      Tfmcc_core.Feedback_timer.draw rng ~bias ~t_max:4. ~delta:0.5
        ~n_estimate:10_000 ~ratio)

let test_timer_bounds () =
  List.iter
    (fun bias ->
      let samples = draw_many ~bias ~ratio:0.5 ~n:5000 in
      Array.iter
        (fun t ->
          if t < 0. || t > 4. +. 1e-9 then
            Alcotest.failf "timer out of [0, T]: %f" t)
        samples)
    [ Tfmcc_core.Config.Unbiased; Offset; Modified_offset; Modified_n ]

let test_unbiased_has_atom_at_zero () =
  (* P(t = 0) = 1/N for the plain exponential timer. *)
  let samples = draw_many ~bias:Tfmcc_core.Config.Unbiased ~ratio:1. ~n:200_000 in
  let zeros = Array.fold_left (fun acc t -> if t = 0. then acc + 1 else acc) 0 samples in
  let frac = float_of_int zeros /. 200_000. in
  Alcotest.(check bool)
    (Printf.sprintf "P(t=0) ~ 1e-4 (got %.5f)" frac)
    true
    (frac > 0.2e-4 && frac < 3e-4)

let test_offset_shifts_low_ratio_early () =
  let early = draw_many ~bias:Offset ~ratio:0.0 ~n:5000 in
  let late = draw_many ~bias:Offset ~ratio:1.0 ~n:5000 in
  Alcotest.(check bool) "low ratio fires earlier on average" true
    (Stats.Descriptive.mean early < Stats.Descriptive.mean late);
  (* Ratio 1 has a hard offset floor of delta*T. *)
  Array.iter
    (fun t -> if t < 2. -. 1e-9 then Alcotest.fail "offset floor violated")
    late

let test_modified_offset_truncation () =
  check_float "r=0.5 maps to 0" 0. (Tfmcc_core.Feedback_timer.normalized_ratio 0.5);
  check_float "r=0.9 maps to 1" 1. (Tfmcc_core.Feedback_timer.normalized_ratio 0.9);
  check_float "r=0.7 maps to 0.5" 0.5 (Tfmcc_core.Feedback_timer.normalized_ratio 0.7);
  check_float "r below band saturates" 0. (Tfmcc_core.Feedback_timer.normalized_ratio 0.1);
  check_float "r above band saturates" 1. (Tfmcc_core.Feedback_timer.normalized_ratio 1.0)

let test_should_cancel_extremes () =
  let c = Tfmcc_core.Feedback_timer.should_cancel in
  (* zeta = 1: any echo cancels (echoed - own <= echoed). *)
  Alcotest.(check bool) "zeta=1 cancels" true (c ~zeta:1. ~own_rate:1. ~echoed_rate:100.);
  (* zeta = 0: only equal-or-lower echo cancels. *)
  Alcotest.(check bool) "zeta=0, lower echo cancels" true
    (c ~zeta:0. ~own_rate:10. ~echoed_rate:9.);
  Alcotest.(check bool) "zeta=0, higher echo does not" false
    (c ~zeta:0. ~own_rate:10. ~echoed_rate:11.);
  (* zeta = 0.1: cancel iff own >= 0.9 * echoed. *)
  Alcotest.(check bool) "within 10%" true (c ~zeta:0.1 ~own_rate:9.5 ~echoed_rate:10.);
  Alcotest.(check bool) "below 10%" false (c ~zeta:0.1 ~own_rate:8.5 ~echoed_rate:10.)

let test_round_duration_regimes () =
  let d_high =
    Tfmcc_core.Feedback_timer.round_duration ~cfg ~max_rtt:0.1 ~rate:1e6
  in
  check_float "RTT-dominated" (Tfmcc_core.Config.round_rtt_factor *. 0.1) d_high;
  let d_low =
    Tfmcc_core.Feedback_timer.round_duration ~cfg ~max_rtt:0.1 ~rate:100.
  in
  (* (k+1)*s/X = 4*1000/100 = 40 s dominates. *)
  check_float "rate-dominated (2.5.3 guard)" 40. d_low

let test_expected_messages_sanity () =
  let e ~n ~t' =
    Tfmcc_core.Feedback_timer.expected_messages ~n ~n_estimate:10_000 ~delay:1.
      ~t_suppress:t'
  in
  Alcotest.(check (float 1e-3)) "n=1 gives 1" 1. (e ~n:1 ~t':4.);
  Alcotest.(check bool) "larger T' fewer messages" true (e ~n:1000 ~t':6. < e ~n:1000 ~t':2.);
  Alcotest.(check bool) "monotone-ish in n at fixed T'" true (e ~n:10_000 ~t':4. >= e ~n:100 ~t':4.);
  (* Degenerate: delay >= T' means nobody can be suppressed. *)
  check_float "no suppression window" 50. (e ~n:50 ~t':0.5)

let test_expected_messages_matches_simulation () =
  (* Cross-check the integral against a Monte-Carlo of the same process. *)
  let n = 200 and t' = 4. and delay = 1. in
  let formula =
    Tfmcc_core.Feedback_timer.expected_messages ~n ~n_estimate:10_000 ~delay
      ~t_suppress:t'
  in
  let rng = Stats.Rng.create 4242 in
  let trials = 400 in
  let acc = ref 0 in
  for _ = 1 to trials do
    let timers =
      Array.init n (fun _ ->
          Tfmcc_core.Feedback_timer.draw rng ~bias:Tfmcc_core.Config.Unbiased
            ~t_max:t' ~delta:0. ~n_estimate:10_000 ~ratio:1.)
    in
    Array.sort compare timers;
    let t_min = timers.(0) in
    Array.iter (fun t -> if t <= t_min +. delay then incr acc) timers
  done;
  let simulated = float_of_int !acc /. float_of_int trials in
  Alcotest.(check bool)
    (Printf.sprintf "formula %.2f ~ simulated %.2f" formula simulated)
    true
    (abs_float (formula -. simulated) < 0.15 *. simulated)

(* -------------------------------------------------------- Rtt_estimator *)

(* The estimators under test run on this clock cell (the receiver's
   [Env.clock]); [on_echo]/[on_data] below set it to the sample's time
   first, as the runtime would. *)
let rtt_clock = { Event_heap.cell_time = 0. }

let new_estimator ?(clock_offset = 0.) () =
  Tfmcc_core.Rtt_estimator.create ~cfg ~clock:rtt_clock ~clock_offset ()

(* An estimator with a registry of its own, for its rejection counter. *)
let counted_estimator () =
  let m = Obs.Metrics.create () in
  (m, Tfmcc_core.Rtt_estimator.create ~metrics:m ~cfg ~clock:rtt_clock ~clock_offset:0. ())

let rejections m = Obs.Metrics.counter_value m "check_rtt_sample_rejected_total"

let on_echo r ~now ~rx_ts ~echo_delay ~pkt_ts ~is_clr =
  rtt_clock.cell_time <- now;
  Tfmcc_core.Rtt_estimator.on_echo r ~rx_ts ~echo_delay ~pkt_ts ~is_clr

let on_data r ~now ~pkt_ts =
  rtt_clock.cell_time <- now;
  Tfmcc_core.Rtt_estimator.on_data r ~pkt_ts

let test_rtt_initial_value () =
  let r = new_estimator () in
  check_float "initial estimate" 0.5 ((Tfmcc_core.Rtt_estimator.floats r).rtt);
  Alcotest.(check bool) "no measurement" false (Tfmcc_core.Rtt_estimator.has_measurement r)

let test_rtt_first_measurement_replaces () =
  let r = new_estimator () in
  (* Report sent at 1.0, echo arrives at 1.08 with 20 ms sender hold:
     inst RTT = 60 ms; first measurement overrides the initial value. *)
  on_echo r ~now:1.08 ~rx_ts:1.0 ~echo_delay:0.02
    ~pkt_ts:1.05 ~is_clr:false;
  Alcotest.(check (float 1e-9)) "first measurement taken" 0.06
    ((Tfmcc_core.Rtt_estimator.floats r).rtt);
  Alcotest.(check bool) "measured" true (Tfmcc_core.Rtt_estimator.has_measurement r)

let test_rtt_ewma_gains () =
  let measure ~is_clr =
    let r = new_estimator () in
    on_echo r ~now:1.1 ~rx_ts:1.0 ~echo_delay:0.
      ~pkt_ts:1.05 ~is_clr;
    (* second instantaneous sample of 200 ms *)
    on_echo r ~now:2.2 ~rx_ts:2.0 ~echo_delay:0.
      ~pkt_ts:2.1 ~is_clr;
    (Tfmcc_core.Rtt_estimator.floats r).rtt
  in
  (* CLR gain 0.05: 0.05*0.2 + 0.95*0.1 = 0.105 *)
  Alcotest.(check (float 1e-9)) "CLR smoothing" 0.105 (measure ~is_clr:true);
  (* non-CLR gain 0.5: 0.5*0.2 + 0.5*0.1 = 0.15 *)
  Alcotest.(check (float 1e-9)) "non-CLR smoothing" 0.15 (measure ~is_clr:false)

let test_rtt_oneway_adjustment_tracks_change () =
  let r = new_estimator () in
  (* Measurement: forward delay 30 ms, reverse 30 ms. *)
  on_echo r ~now:1.06 ~rx_ts:1.0 ~echo_delay:0.
    ~pkt_ts:1.03 ~is_clr:true;
  check_float "baseline 60ms" 0.06 ((Tfmcc_core.Rtt_estimator.floats r).rtt);
  (* Forward delay doubles to 60 ms: one-way adjustments should pull the
     estimate up over many packets. *)
  for i = 1 to 2000 do
    let t = 1.06 +. (0.01 *. float_of_int i) in
    on_data r ~now:t ~pkt_ts:(t -. 0.06)
  done;
  Alcotest.(check (float 0.005)) "converges to 90ms" 0.09
    ((Tfmcc_core.Rtt_estimator.floats r).rtt)

let test_rtt_clock_offset_cancels () =
  (* A receiver whose clock is 100 s ahead must measure the same RTT. *)
  let offset = 100. in
  let r = new_estimator ~clock_offset:offset () in
  let local t = t +. offset in
  (* engine times: report at 1.0, echo back at 1.06 (RTT 60 ms); the
     estimator adds the offset to the clock itself. *)
  on_echo r ~now:1.06 ~rx_ts:(local 1.0)
    ~echo_delay:0. ~pkt_ts:1.03 (* sender clock! *) ~is_clr:true;
  check_float "RTT unaffected by skew" 0.06 ((Tfmcc_core.Rtt_estimator.floats r).rtt);
  (* One-way adjustments also cancel the offset. *)
  for i = 1 to 500 do
    let t = 1.06 +. (0.01 *. float_of_int i) in
    on_data r ~now:t ~pkt_ts:(t -. 0.03)
  done;
  Alcotest.(check (float 1e-6)) "stable under skew" 0.06
    ((Tfmcc_core.Rtt_estimator.floats r).rtt)

let test_rtt_skewed_clock_sample_clamped () =
  (* Regression: a corrupted echo (or clock skew not cancelling, e.g. a
     stale rx_ts after a clock step) can make the raw sample
     local_now - rx_ts - echo_delay non-positive.  Those samples used to
     be discarded silently, leaving the estimate stuck on the 500 ms
     initial value forever; now they are clamped to a 1 ms floor and
     counted. *)
  let m, r = counted_estimator () in
  (* rx_ts claims the report left *after* the echo arrived: raw = -0.5 *)
  on_echo r ~now:1.0 ~rx_ts:1.4 ~echo_delay:0.1
    ~pkt_ts:0.9 ~is_clr:false;
  Alcotest.(check bool) "measurement loop counted as closed" true
    (Tfmcc_core.Rtt_estimator.has_measurement r);
  Alcotest.(check int) "rejection counted" 1 (rejections m);
  Alcotest.(check (float 1e-9)) "estimate clamped to the 1 ms floor" 0.001
    ((Tfmcc_core.Rtt_estimator.floats r).rtt);
  (* NaN samples (corrupted echo_delay) are dropped, not folded in. *)
  on_echo r ~now:2.0 ~rx_ts:1.9
    ~echo_delay:Float.nan ~pkt_ts:1.95 ~is_clr:false;
  Alcotest.(check int) "NaN rejected too" 2 (rejections m);
  Alcotest.(check (float 1e-9)) "estimate untouched by NaN" 0.001
    ((Tfmcc_core.Rtt_estimator.floats r).rtt);
  (* A subsequent sane sample recovers the estimate (non-CLR gain 0.5). *)
  on_echo r ~now:3.06 ~rx_ts:3.0 ~echo_delay:0.
    ~pkt_ts:3.03 ~is_clr:false;
  Alcotest.(check (float 1e-9)) "recovers once samples are sane"
    ((0.5 *. 0.06) +. (0.5 *. 0.001))
    ((Tfmcc_core.Rtt_estimator.floats r).rtt)

(* ------------------------------------------------------------- Receiver *)

(* A stub environment on a clock cell, for the allocation budgets:
   [send] keeps the last message in [sent], [after]/[at] keep the last
   callback in [armed] and return [Env.no_timer], so a timer runs only
   when the test calls it, and neither allocates. *)
let stub_env ~id clock ~sent ~armed =
  {
    Tfmcc_core.Env.id;
    clock;
    after =
      (fun ~delay:_ f ->
        armed := f;
        Tfmcc_core.Env.no_timer);
    after_unit = (fun ~delay:_ _ -> ());
    at =
      (fun ~time:_ f ->
        armed := f;
        Tfmcc_core.Env.no_timer);
    cancel = ignore;
    send = (fun ~dest:_ ~flow:_ ~size:_ m -> sent := m);
    join = ignore;
    leave = ignore;
    split_rng = (fun () -> Stats.Rng.create 1);
    obs = Obs.Sink.null;
  }

(* Minor words per call of [f i], i = 0 .. n-1. *)
let words_per_call n f =
  let w0 = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let no_msg =
  Tfmcc_core.Wire.Report
    {
      session = 0;
      rx_id = 0;
      ts = 0.;
      echo_ts = 0.;
      echo_delay = 0.;
      rate = 0.;
      have_rtt = false;
      rtt = 0.;
      p = 0.;
      x_recv = 0.;
      round = 0;
      has_loss = false;
      leaving = false;
    }

let data_packet ?echo ~seq ~clr () =
  {
    Tfmcc_core.Wire.session = 1;
    seq;
    ts = 0.001 *. float_of_int seq;
    rate = 125_000.;
    round = 0;
    round_duration = 0.5;
    max_rtt = 0.1;
    clr;
    in_slowstart = false;
    echo;
    fb = None;
    app = -1;
  }

(* Allocation budget of the per-delivery path, the cost the paper's
   scaling case multiplies by n: [Receiver.deliver_data] on loss-free,
   echo-free data packets, with a stub environment on a clock cell.  The
   receiver reads the time from the cell, keeps its floats in all-float
   records and passes none across a module boundary, so a packet
   allocates nothing; the budget is 1 minor word per packet (about 8
   before, when the clock was read through a closure and the time, the
   rate window and the receive rate were boxed at each call). *)
let test_receiver_deliver_words () =
  let clock = { Event_heap.cell_time = 0. } in
  let env = stub_env ~id:1 clock ~sent:(ref no_msg) ~armed:(ref ignore) in
  let r = Tfmcc_core.Receiver.create ~env ~cfg ~session:1 ~sender:0 () in
  Tfmcc_core.Receiver.join r;
  (* 1 ms apart at the sender's 125 kB/s: a 1 s rate window holds about
     1000 of them, so the warm-up grows the meter's ring to its
     steady-state size before the measurement starts. *)
  let warmup = 5_000 and n = 100_000 in
  let packets = Array.init (warmup + n) (fun seq -> data_packet ~seq ~clr:2 ()) in
  let deliver first count =
    for i = first to first + count - 1 do
      clock.cell_time <- 0.05 +. (0.001 *. float_of_int i);
      Tfmcc_core.Receiver.deliver_data r ~size:1000 packets.(i)
    done
  in
  deliver 0 warmup;
  let w0 = Gc.minor_words () in
  deliver warmup n;
  let w = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check int) "every packet received" (warmup + n)
    (Tfmcc_core.Receiver.packets_received r);
  Alcotest.(check bool) "loss-free" false (Tfmcc_core.Receiver.has_loss r);
  if w > 1. then
    Alcotest.failf "%.2f minor words per delivered data packet (budget 1)" w

(* Allocation budget of one receiver report as the CLR sends it, once
   per RTT (§2.4-2.5): the CLR-report timer's callback on a receiver
   that has seen loss and measured its RTT, each call building and
   sending one report through [send_report] and re-arming the timer.
   The message itself is 30 words (the [Report] box and record, 16,
   and its 7 boxed floats, 14) and the re-arm's delay 4 more.  The
   budget is 1.10x the 34 words measured once the loss event rate was
   computed once per report and no float crossed a module boundary
   boxed; the same callback read 66 before. *)
let test_report_build_words () =
  let clock = { Event_heap.cell_time = 0. } in
  let sent = ref no_msg and armed = ref ignore in
  let env = stub_env ~id:1 clock ~sent ~armed in
  let r = Tfmcc_core.Receiver.create ~env ~cfg ~session:1 ~sender:0 () in
  Tfmcc_core.Receiver.join r;
  (* Every 50th packet lost; packet 10 echoes this receiver's report
     (an RTT measurement); every packet names it the CLR. *)
  for seq = 0 to 999 do
    clock.cell_time <- 0.05 +. (0.001 *. float_of_int seq);
    if seq mod 50 <> 49 then
      let echo =
        if seq = 10 then
          Some { Tfmcc_core.Wire.rx_id = 1; rx_ts = 0.; echo_delay = 0.01 }
        else None
      in
      Tfmcc_core.Receiver.deliver_data r ~size:1000 (data_packet ?echo ~seq ~clr:1 ())
  done;
  Alcotest.(check bool) "CLR" true (Tfmcc_core.Receiver.is_clr r);
  let clr_report = !armed in
  let n = 10_000 in
  let w =
    words_per_call n (fun i ->
        clock.cell_time <- 1.1 +. (0.01 *. float_of_int i);
        clr_report ())
  in
  (match !sent with
  | Tfmcc_core.Wire.Report rep ->
      Alcotest.(check bool) "has loss" true rep.has_loss;
      Alcotest.(check bool) "has rtt" true rep.have_rtt;
      Alcotest.(check bool) "p > 0" true (rep.p > 0.)
  | Tfmcc_core.Wire.Data _ -> Alcotest.fail "no report sent");
  Alcotest.(check int) "one report per call" (n + 1) (Tfmcc_core.Receiver.reports_sent r);
  let budget = 37.4 in
  if w > budget then
    Alcotest.failf "%.2f minor words per CLR report (budget %.2f)" w budget

(* Allocation budget of the sender's handling of one receiver report,
   in congestion avoidance with a current CLR and a null journal: a
   report from the CLR (rate control and its echo) and one from another
   receiver that has seen loss at a higher rate (its RTT entry and a
   queued echo).  The budgets are 1.10x the 0.94 and 14 words measured
   once the report's floats went into all-float records, the RTT table
   and the CLR's echo were rewritten in place and the round's lowest
   report was allocated only when it won: the CLR's report now boxes
   only a capped rate, the other allocates its queued echo (6 words, 2
   for its arrival time) and the queue cells before it.  Both read
   42.76 and 48 before. *)
let test_deliver_report_words () =
  let clock = { Event_heap.cell_time = 0. } in
  let sent = ref no_msg and armed = ref ignore in
  let env = stub_env ~id:0 clock ~sent ~armed in
  let s = Tfmcc_core.Sender.create ~env ~cfg ~session:1 () in
  Tfmcc_core.Sender.start s ~at:0.;
  !armed ();
  let report ~rx ~rate =
    {
      Tfmcc_core.Wire.session = 1;
      rx_id = rx;
      ts = 0.5;
      echo_ts = 0.;
      echo_delay = 0.01;
      rate;
      have_rtt = true;
      rtt = 0.1;
      p = 0.01;
      x_recv = rate;
      round = 0;
      has_loss = true;
      leaving = false;
    }
  in
  let clr_report = report ~rx:1 ~rate:50_000. and other = report ~rx:2 ~rate:80_000. in
  clock.cell_time <- 0.2;
  Tfmcc_core.Sender.deliver_report s clr_report;
  Tfmcc_core.Sender.deliver_report s other;
  Alcotest.(check (option int)) "rx 1 is the CLR" (Some 1) (Tfmcc_core.Sender.clr s);
  Alcotest.(check bool) "congestion avoidance" false (Tfmcc_core.Sender.in_slowstart s);
  let n = 10_000 in
  let per rep =
    words_per_call n (fun i ->
        clock.cell_time <- 0.3 +. (0.001 *. float_of_int i);
        Tfmcc_core.Sender.deliver_report s rep)
  in
  let w_clr = per clr_report in
  let w_other = per other in
  Alcotest.(check (option int)) "rx 1 still the CLR" (Some 1) (Tfmcc_core.Sender.clr s);
  Alcotest.(check int) "every report counted" (2 + (2 * n))
    (Tfmcc_core.Sender.reports_received s);
  let check what w budget =
    if w > budget then
      Alcotest.failf "%.2f minor words per %s report (budget %.2f)" w what budget
  in
  check "CLR" w_clr 1.03;
  check "other" w_other 15.4

(* ------------------------------------------------------ Feedback_process *)

let process_params ?(cancel = Tfmcc_core.Feedback_process.On_any) ?(bias = Tfmcc_core.Config.Modified_offset) () =
  {
    Tfmcc_core.Feedback_process.n_estimate = 10_000;
    t_max = 6.;
    delay = 1.;
    bias;
    delta = 1. /. 3.;
    cancel;
  }

let test_process_single_receiver_always_responds () =
  let rng = Stats.Rng.create 1 in
  let o =
    Tfmcc_core.Feedback_process.run_round rng (process_params ()) ~values:[| 0.4 |]
  in
  Alcotest.(check int) "one response" 1 o.responses;
  check_float "best = own value" 0.4 o.best_value

let test_process_suppression_reduces_responses () =
  let rng = Stats.Rng.create 2 in
  let values = Tfmcc_core.Feedback_process.uniform_values rng ~n:1000 ~lo:0.3 ~hi:0.7 in
  let o = Tfmcc_core.Feedback_process.run_round rng (process_params ()) ~values in
  Alcotest.(check bool)
    (Printf.sprintf "far fewer than n responses (%d)" o.responses)
    true (o.responses < 100);
  Alcotest.(check bool) "at least one" true (o.responses >= 1)

let test_process_zeta_zero_hears_minimum () =
  let rng = Stats.Rng.create 3 in
  for _ = 1 to 20 do
    let values = Tfmcc_core.Feedback_process.uniform_values rng ~n:200 ~lo:0. ~hi:1. in
    let o =
      Tfmcc_core.Feedback_process.run_round rng
        (process_params ~cancel:(Tfmcc_core.Feedback_process.Rate_threshold 0.) ())
        ~values
    in
    check_float "true minimum always reported" o.true_min o.best_value
  done

let test_process_events_ordered () =
  let rng = Stats.Rng.create 4 in
  let values = Tfmcc_core.Feedback_process.uniform_values rng ~n:100 ~lo:0. ~hi:1. in
  let o = Tfmcc_core.Feedback_process.run_round rng (process_params ()) ~values in
  Array.iteri
    (fun i (e : Tfmcc_core.Feedback_process.event) ->
      if i > 0 && e.timer < o.events.(i - 1).timer then
        Alcotest.fail "events must be in timer order")
    o.events;
  Alcotest.(check int) "all receivers accounted" 100 (Array.length o.events)

let test_process_first_event_sent () =
  let rng = Stats.Rng.create 5 in
  let values = Tfmcc_core.Feedback_process.uniform_values rng ~n:50 ~lo:0. ~hi:1. in
  let o = Tfmcc_core.Feedback_process.run_round rng (process_params ()) ~values in
  Alcotest.(check bool) "earliest timer cannot be suppressed" true o.events.(0).sent

(* -------------------------------------------------------- Scaling_model *)

let test_scaling_constant_profile () =
  let rng = Stats.Rng.create 6 in
  let rates = Tfmcc_core.Scaling_model.assign_loss_rates rng ~n:50 ~profile:(Constant 0.1) in
  Array.iter (fun p -> check_float "constant" 0.1 p) rates

let test_scaling_realistic_profile_shape () =
  let rng = Stats.Rng.create 7 in
  let rates =
    Tfmcc_core.Scaling_model.assign_loss_rates rng ~n:1000
      ~profile:(Realistic { c = 1. })
  in
  let high = Array.to_list rates |> List.filter (fun p -> p >= 0.05) in
  let low = Array.to_list rates |> List.filter (fun p -> p < 0.02) in
  Alcotest.(check bool) "few high-loss receivers" true (List.length high <= 20);
  Alcotest.(check bool) "majority low loss" true (List.length low > 900);
  Array.iter
    (fun p -> if p < 0.005 || p > 0.10 then Alcotest.failf "rate out of range: %f" p)
    rates

let test_scaling_throughput_decreases () =
  let rng = Stats.Rng.create 8 in
  let t n =
    Tfmcc_core.Scaling_model.expected_throughput rng ~n ~profile:(Constant 0.1)
      ~rtt:0.05 ~s:1000 ~n_intervals:8 ~trials:200
  in
  let t1 = t 1 and t100 = t 100 in
  Alcotest.(check bool) "monotone degradation" true (t100 < t1);
  (* n=1 should be near the fair rate for p=0.1 (~300 kbit/s +- 30%). *)
  let kbit = t1 *. 8. /. 1000. in
  Alcotest.(check bool)
    (Printf.sprintf "n=1 near fair rate (got %.0f kbit)" kbit)
    true
    (kbit > 200. && kbit < 450.)

let test_scaling_realistic_degrades_less () =
  let rng = Stats.Rng.create 9 in
  let deg profile =
    let t n =
      Tfmcc_core.Scaling_model.expected_throughput rng ~n ~profile ~rtt:0.05
        ~s:1000 ~n_intervals:8 ~trials:150
    in
    t 1000 /. t 1
  in
  let d_const = deg (Tfmcc_core.Scaling_model.Constant 0.1) in
  let d_real = deg (Tfmcc_core.Scaling_model.Realistic { c = 1. }) in
  Alcotest.(check bool)
    (Printf.sprintf "realistic (%.2f) degrades less than constant (%.2f)" d_real d_const)
    true (d_real > d_const)

(* ----------------------------------------------------------- Properties *)

let prop_timer_in_range =
  QCheck.Test.make ~name:"feedback timer always in [0, T]" ~count:500
    QCheck.(triple (int_range 1 1_000_000) (float_range 0.01 100.) (float_bound_inclusive 1.))
    (fun (seed, t_max, ratio) ->
      let rng = Stats.Rng.create seed in
      List.for_all
        (fun bias ->
          let t =
            Tfmcc_core.Feedback_timer.draw rng ~bias ~t_max ~delta:0.4
              ~n_estimate:1000 ~ratio
          in
          t >= 0. && t <= t_max +. 1e-9)
        [ Tfmcc_core.Config.Unbiased; Offset; Modified_offset; Modified_n ])

let prop_normalized_ratio_in_unit =
  QCheck.Test.make ~name:"normalized ratio in [0,1]" ~count:500
    QCheck.(float_range (-10.) 10.)
    (fun r ->
      let v = Tfmcc_core.Feedback_timer.normalized_ratio r in
      v >= 0. && v <= 1.)

let prop_cancel_monotone_in_zeta =
  QCheck.Test.make ~name:"larger zeta cancels at least as often" ~count:500
    QCheck.(triple (float_range 0.01 10.) (float_range 0.01 10.) (pair (float_bound_inclusive 1.) (float_bound_inclusive 1.)))
    (fun (own, echoed, (z1, z2)) ->
      let zl = Float.min z1 z2 and zh = Float.max z1 z2 in
      let c z = Tfmcc_core.Feedback_timer.should_cancel ~zeta:z ~own_rate:own ~echoed_rate:echoed in
      (not (c zl)) || c zh)

(* The sender's one-pass echo queue against the filter-and-sort it
   replaced, over random report sequences with many (class, rate) ties
   and some data packets popping the head.  [pe_ts] numbers the reports,
   so equal lists also mean equal tie order. *)
let prop_echo_queue_matches_sort =
  QCheck.Test.make ~name:"echo queue = filter + stable sort" ~count:500
    QCheck.(list (triple (int_range 0 8) (int_range 1 4) (int_range 0 3)))
    (fun ops ->
      let reference l (e : Tfmcc_core.Echo_queue.entry) =
        let cmp (a : Tfmcc_core.Echo_queue.entry) (b : Tfmcc_core.Echo_queue.entry) =
          match compare a.pe_class b.pe_class with 0 -> compare a.pe_rate b.pe_rate | c -> c
        in
        List.sort cmp
          (e :: List.filter (fun (x : Tfmcc_core.Echo_queue.entry) -> x.pe_rx <> e.pe_rx) l)
      in
      let pop = function [] -> [] | _ :: rest -> rest in
      let step (q, r, i) (rx, pe_class, rate) =
        if rx = 8 then (pop q, pop r, i + 1)
        else
          let e =
            { Tfmcc_core.Echo_queue.pe_rx = rx; pe_ts = float_of_int i; pe_arrival = 0.;
              pe_class; pe_rate = 0.5 *. float_of_int rate }
          in
          let q = Tfmcc_core.Echo_queue.insert q e and r = reference r e in
          if q <> r then QCheck.Test.fail_reportf "diverged at report %d" i;
          (q, r, i + 1)
      in
      ignore (List.fold_left step ([], [], 0) ops);
      true)

let () =
  Alcotest.run "tfmcc"
    [
      ( "config",
        [
          Alcotest.test_case "default valid" `Quick test_default_valid;
          Alcotest.test_case "validate catches bad" `Quick test_validate_catches_bad;
          Alcotest.test_case "paper constants" `Quick test_default_follows_paper;
        ] );
      ( "feedback_timer",
        [
          Alcotest.test_case "bounds" `Quick test_timer_bounds;
          Alcotest.test_case "atom at zero" `Slow test_unbiased_has_atom_at_zero;
          Alcotest.test_case "offset ordering" `Quick test_offset_shifts_low_ratio_early;
          Alcotest.test_case "modified-offset truncation" `Quick test_modified_offset_truncation;
          Alcotest.test_case "cancellation rule" `Quick test_should_cancel_extremes;
          Alcotest.test_case "round duration" `Quick test_round_duration_regimes;
          Alcotest.test_case "E[M] sanity" `Quick test_expected_messages_sanity;
          Alcotest.test_case "E[M] vs Monte-Carlo" `Slow test_expected_messages_matches_simulation;
        ] );
      ( "rtt_estimator",
        [
          Alcotest.test_case "initial value" `Quick test_rtt_initial_value;
          Alcotest.test_case "first measurement" `Quick test_rtt_first_measurement_replaces;
          Alcotest.test_case "EWMA gains" `Quick test_rtt_ewma_gains;
          Alcotest.test_case "one-way adjustment" `Quick test_rtt_oneway_adjustment_tracks_change;
          Alcotest.test_case "clock offset cancels" `Quick test_rtt_clock_offset_cancels;
          Alcotest.test_case "skewed-clock sample clamped" `Quick
            test_rtt_skewed_clock_sample_clamped;
        ] );
      ( "receiver",
        [
          Alcotest.test_case "deliver_data minor words budget" `Quick
            test_receiver_deliver_words;
          Alcotest.test_case "report build minor words budget" `Quick
            test_report_build_words;
        ] );
      ( "sender",
        [
          Alcotest.test_case "deliver_report minor words budget" `Quick
            test_deliver_report_words;
        ] );
      ( "feedback_process",
        [
          Alcotest.test_case "single receiver" `Quick test_process_single_receiver_always_responds;
          Alcotest.test_case "suppression works" `Quick test_process_suppression_reduces_responses;
          Alcotest.test_case "zeta=0 hears minimum" `Quick test_process_zeta_zero_hears_minimum;
          Alcotest.test_case "events ordered" `Quick test_process_events_ordered;
          Alcotest.test_case "first event sent" `Quick test_process_first_event_sent;
        ] );
      ( "scaling_model",
        [
          Alcotest.test_case "constant profile" `Quick test_scaling_constant_profile;
          Alcotest.test_case "realistic profile shape" `Quick test_scaling_realistic_profile_shape;
          Alcotest.test_case "throughput decreases" `Slow test_scaling_throughput_decreases;
          Alcotest.test_case "realistic degrades less" `Slow test_scaling_realistic_degrades_less;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_timer_in_range;
            prop_normalized_ratio_in_unit;
            prop_cancel_monotone_in_zeta;
            prop_echo_queue_matches_sort;
          ] );
    ]
