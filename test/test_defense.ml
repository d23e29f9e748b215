(* Unit tests for the adversarial-receiver defense layer (Defense), plus
   the fixed-seed ablation acceptance test from the robustness suite:
   with defenses on, a single understater / rtt-liar among 32 honest
   receivers costs < 20% honest goodput; with defenses off it costs
   > 70%. *)

open Tfmcc_core

let cfg = { Config.default with Config.defense_enabled = true }

let rd = 0.1 (* round duration used throughout the unit tests *)

(* The sink of the newest [make]: the defense counters are read from
   its registry, as the robustness experiments read them. *)
let sink = ref Obs.Sink.null

let make () =
  sink := Obs.Sink.create ();
  Defense.create ~cfg ~obs:!sink ~session:1 ~node:0 ()

let count name =
  Obs.Metrics.sum_counters !sink.Obs.Sink.metrics ("tfmcc_defense_" ^ name ^ "_total")

(* An honest report: rate consistent with the TCP equation at (rtt, p),
   modest x_recv, plausible claimed RTT. *)
let honest_rate ~rtt ~p =
  Tcp_model.Padhye.throughput ~b:cfg.Config.b ~s:cfg.Config.packet_size ~rtt p

let screen ?(now = 1.) ?(sender_rate = 1e5) ?(sender_round = 1) ?(rx = 3)
    ?rate ?(have_rtt = true) ?(rtt = 0.1) ?(p = 0.01) ?x_recv
    ?(has_loss = true) ?(echo_delay = 0.01) ?(rtt_sample = Some 0.1)
    ?(is_clr = false) d =
  let rate = match rate with Some r -> r | None -> honest_rate ~rtt ~p in
  let x_recv = match x_recv with Some x -> x | None -> sender_rate in
  Defense.screen d ~now ~round_duration:rd ~sender_rate ~sender_round ~rx
    ~rate ~have_rtt ~rtt ~p ~x_recv ~has_loss ~echo_delay ~rtt_sample ~is_clr

let reject_kind =
  Alcotest.testable
    (fun ppf (r : Defense.reject) ->
      Format.pp_print_string ppf
        (match r with
        | Quarantined -> "quarantined"
        | Spam -> "spam"
        | Implausible_rtt -> "implausible-rtt"
        | Implausible_rate -> "implausible-rate"
        | Implausible_xrecv -> "implausible-xrecv"
        | Implausible_echo_delay -> "implausible-echo-delay"))
    ( = )

let check_reject what r = Alcotest.(check (option reject_kind)) "reject kind" (Some what) r

let check_pass r = Alcotest.(check (option reject_kind)) "pass" None r

let test_screen_honest_passes () =
  let d = make () in
  check_pass (screen d);
  Alcotest.(check int) "no rejects" 0 (count "implausible")

let test_screen_rtt_floor () =
  let d = make () in
  (* Sender-side sample says the round trip took 100 ms; claiming 1 ms is
     physically impossible. *)
  check_reject Defense.Implausible_rtt
    (screen d ~rtt:0.001 ~rate:(honest_rate ~rtt:0.001 ~p:0.01));
  Alcotest.(check int) "counted" 1 (count "implausible");
  (* Without a sender-side sample the floor cannot fire. *)
  let d = make () in
  check_pass
    (screen d ~rtt:0.001 ~rtt_sample:None
       ~rate:(honest_rate ~rtt:0.001 ~p:0.01))

let test_screen_xrecv_ceiling () =
  let d = make () in
  check_reject Defense.Implausible_xrecv (screen d ~x_recv:1e7 ~sender_rate:1e5)

let test_screen_equation () =
  let d = make () in
  (* Claimed calculated rate 100x what the TCP model gives at the claimed
     (rtt, p): self-inconsistent. *)
  check_reject Defense.Implausible_rate
    (screen d ~rate:(100. *. honest_rate ~rtt:0.1 ~p:0.01));
  check_reject Defense.Implausible_rate
    (screen d ~rate:(honest_rate ~rtt:0.1 ~p:0.01 /. 100.));
  (* No-loss reports are receive-rate based, not equation based: exempt. *)
  let d = make () in
  check_pass (screen d ~rate:1. ~has_loss:false ~p:0.)

let test_screen_echo_delay () =
  let d = make () in
  check_reject Defense.Implausible_echo_delay (screen d ~echo_delay:(100. *. rd))

let test_screen_spam_non_clr () =
  let d = make () in
  let budget = Config.defense_max_reports_per_round in
  for i = 1 to budget do
    check_pass (screen d ~now:(1. +. (0.001 *. float_of_int i)))
  done;
  check_reject Defense.Spam (screen d ~now:1.9);
  Alcotest.(check int) "spam counted" 1 (count "spam_drops");
  (* Fresh round: budget resets. *)
  check_pass (screen d ~now:2. ~sender_round:2)

let test_screen_spam_clr_spacing () =
  let d = make () in
  (* CLR with a 100 ms RTT may report about once per RTT; back-to-back
     reports 10 ms apart violate the half-RTT spacing. *)
  check_pass (screen d ~now:1. ~is_clr:true);
  check_reject Defense.Spam (screen d ~now:1.01 ~is_clr:true);
  check_pass (screen d ~now:1.2 ~is_clr:true);
  (* A forged tiny claimed RTT must not widen the budget: the sender-side
     sample dominates. *)
  check_reject Defense.Spam (screen d ~now:1.21 ~is_clr:true ~rtt:0.001
     ~rate:(honest_rate ~rtt:0.001 ~p:0.01))

let test_quarantine_cycle () =
  let d = make () in
  (* Suspicion threshold is 3: three implausible reports trigger
     quarantine. *)
  for i = 1 to 3 do
    check_reject Defense.Implausible_xrecv
      (screen d ~now:(float_of_int i *. 0.01) ~x_recv:1e9)
  done;
  Alcotest.(check int) "quarantined once" 1 (count "quarantines");
  Alcotest.(check bool) "flagged" true (Defense.is_quarantined d ~now:0.1 3);
  (* While quarantined, even honest-looking reports are dropped. *)
  check_reject Defense.Quarantined (screen d ~now:0.1);
  Alcotest.(check int) "drop counted" 1 (count "quarantined_drops");
  (* Quarantine expires after defense_quarantine_rounds rounds... *)
  let release = 0.03 +. (Config.defense_quarantine_rounds *. rd) +. 0.01 in
  Alcotest.(check bool) "released" false
    (Defense.is_quarantined d ~now:release 3);
  check_pass (screen d ~now:release);
  (* ...but CLR candidacy stays barred for the probation tail. *)
  Alcotest.(check bool) "still on probation" false
    (Defense.may_lead d ~now:release ~round_duration:rd 3);
  let after_probation =
    release +. (Config.defense_quarantine_rounds *. rd) +. 0.01
  in
  Alcotest.(check bool) "probation over" true
    (Defense.may_lead d ~now:after_probation ~round_duration:rd 3)

let test_admit_quorum_outlier () =
  let d = make () in
  (* Build a quorum window: four receivers near 100 kB/s. *)
  List.iteri
    (fun i rate ->
      let rx = 10 + i in
      check_pass (screen d ~rx ~rate ~now:1.);
      Alcotest.(check bool) "honest admitted" true
        (Defense.admit d ~now:1. ~round_duration:rd ~sender_rate:1e5 ~rx ~rate))
    [ 0.9e5; 1.0e5; 1.1e5; 1.2e5 ];
  (* An equation-consistent but absurdly low claim is a log10 outlier. *)
  Alcotest.(check bool) "outlier rejected" false
    (Defense.admit d ~now:1. ~round_duration:rd ~sender_rate:1e5 ~rx:3
       ~rate:10.);
  Alcotest.(check int) "outlier counted" 1 (count "outliers");
  (* A merely degraded receiver within the band is believed. *)
  Alcotest.(check bool) "degraded admitted" true
    (Defense.admit d ~now:1. ~round_duration:rd ~sender_rate:1e5 ~rx:4
       ~rate:0.5e5)

let test_admit_below_quorum_fallback () =
  let d = make () in
  (* No window yet: the ratio fallback against the sending-rate ceiling
     applies. 30x below the ceiling is dropped, 10x below is kept. *)
  Alcotest.(check bool) "ratio outlier" false
    (Defense.admit d ~now:1. ~round_duration:rd ~sender_rate:1e5 ~rx:3
       ~rate:(1e5 /. 100.));
  Alcotest.(check bool) "ratio pass" true
    (Defense.admit d ~now:1. ~round_duration:rd ~sender_rate:1e5 ~rx:3
       ~rate:(1e5 /. 10.))

let test_may_lead_first_utterance () =
  let d = make () in
  (* Never-heard-from receiver cannot lead at all. *)
  Alcotest.(check bool) "unknown blocked" false
    (Defense.may_lead d ~now:5. ~round_duration:rd 7);
  (* First contact now: still blocked for most of a round... *)
  check_pass (screen d ~rx:7 ~now:5.);
  Alcotest.(check bool) "first utterance blocked" false
    (Defense.may_lead d ~now:5. ~round_duration:rd 7);
  (* ...then allowed once the track record is a round old. *)
  Alcotest.(check bool) "veteran allowed" true
    (Defense.may_lead d ~now:(5. +. rd) ~round_duration:rd 7)

let test_may_switch_hysteresis () =
  let d = make () in
  (* Undercutting by less than the hysteresis margin is damped. *)
  Alcotest.(check bool) "within margin damped" false
    (Defense.may_switch d ~now:1. ~sender_rate:1e5 ~candidate_rate:0.99e5
       ~rx:3);
  Alcotest.(check int) "damped counted" 1 (count "clr_damped");
  Alcotest.(check bool) "real undercut allowed" true
    (Defense.may_switch d ~now:1. ~sender_rate:1e5 ~candidate_rate:0.5e5
       ~rx:3)

let test_may_switch_holddown () =
  let d = make () in
  let ok now =
    Defense.may_switch d ~now ~sender_rate:1e5 ~candidate_rate:0.5e5 ~rx:3
  in
  Alcotest.(check bool) "first switch allowed" true (ok 1.);
  Defense.note_switch d ~now:1. ~round_duration:rd;
  (* Inside the hold-down window every further switch is damped. *)
  Alcotest.(check bool) "inside hold-down damped" false (ok 1.05);
  let after = 1. +. (Config.defense_holddown_rounds *. rd) +. 0.01 in
  Alcotest.(check bool) "after hold-down allowed" true (ok after);
  (* A switch landing right after the previous window doubles the next
     hold-down, so the same spacing is now damped. *)
  Defense.note_switch d ~now:after ~round_duration:rd;
  Alcotest.(check bool) "doubled hold-down damps" false
    (ok (after +. (Config.defense_holddown_rounds *. rd) +. 0.01))

let test_suspicion_decay () =
  let d = make () in
  check_reject Defense.Implausible_xrecv (screen d ~now:0.01 ~x_recv:1e9);
  Alcotest.(check (float 1e-9)) "one point" 1. (Defense.suspicion d 3);
  Defense.on_round d ~now:0.1 ~round_duration:rd ~sender_rate:1e5;
  Alcotest.(check (float 1e-9)) "decayed" Config.defense_suspicion_decay
    (Defense.suspicion d 3)

(* --------------------------------------------- ablation acceptance *)

(* The ISSUE acceptance criterion, pinned to a fixed seed: in the
   fig09-style 32-receiver topology, a single understater or rtt-liar
   degrades honest goodput by < 20% with defenses on and > 70% with
   defenses off. *)
let test_ablation_acceptance () =
  let open Experiments in
  let mode = Scenario.Quick and seed = 7 in
  let base_off = Rob_common.run_cell ~mode ~seed ~defense:false () in
  let base_on = Rob_common.run_cell ~mode ~seed ~defense:true () in
  List.iter
    (fun attack ->
      let off = Rob_common.run_cell ~mode ~seed ~attack ~defense:false () in
      let name = off.Rob_common.c_attack in
      let on = Rob_common.run_cell ~mode ~seed ~attack ~defense:true () in
      let off_deg = Rob_common.degradation ~baseline:base_off off in
      let on_deg = Rob_common.degradation ~baseline:base_on on in
      if off_deg <= 70. then
        Alcotest.fail
          (Printf.sprintf "%s: only %.1f%% degradation with defenses off"
             name off_deg);
      if on_deg >= 20. then
        Alcotest.fail
          (Printf.sprintf "%s: %.1f%% degradation despite defenses" name
             on_deg))
    [ Rob_common.Understater; Rob_common.Rtt_liar ]

let () =
  Alcotest.run "tfmcc_defense"
    [
      ( "screen",
        [
          Alcotest.test_case "honest passes" `Quick test_screen_honest_passes;
          Alcotest.test_case "rtt floor" `Quick test_screen_rtt_floor;
          Alcotest.test_case "xrecv ceiling" `Quick test_screen_xrecv_ceiling;
          Alcotest.test_case "equation consistency" `Quick test_screen_equation;
          Alcotest.test_case "echo delay" `Quick test_screen_echo_delay;
          Alcotest.test_case "spam budget" `Quick test_screen_spam_non_clr;
          Alcotest.test_case "CLR spacing" `Quick test_screen_spam_clr_spacing;
        ] );
      ( "suspicion",
        [
          Alcotest.test_case "quarantine cycle" `Quick test_quarantine_cycle;
          Alcotest.test_case "decay" `Quick test_suspicion_decay;
        ] );
      ( "admit",
        [
          Alcotest.test_case "quorum outlier" `Quick test_admit_quorum_outlier;
          Alcotest.test_case "ratio fallback" `Quick
            test_admit_below_quorum_fallback;
        ] );
      ( "leadership",
        [
          Alcotest.test_case "first utterance" `Quick
            test_may_lead_first_utterance;
          Alcotest.test_case "hysteresis" `Quick test_may_switch_hysteresis;
          Alcotest.test_case "hold-down" `Quick test_may_switch_holddown;
        ] );
      ( "ablation",
        [ Alcotest.test_case "acceptance" `Slow test_ablation_acceptance ] );
    ]
