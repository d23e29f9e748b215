type experiment = {
  id : string;
  figure : string;
  title : string;
  run : mode:Scenario.mode -> seed:int -> Series.t list;
}

let all =
  [
    {
      id = "fig01";
      figure = "Figure 1";
      title = "CDF of feedback time under different biasing methods";
      run = Fig01_bias_cdf.run;
    };
    {
      id = "fig02";
      figure = "Figure 2";
      title = "Time-value distribution of one feedback round";
      run = Fig02_time_value.run;
    };
    {
      id = "fig03";
      figure = "Figure 3";
      title = "Feedback cancellation methods (worst-case round)";
      run = Fig03_cancellation.run;
    };
    {
      id = "fig04";
      figure = "Figure 4";
      title = "Expected number of feedback messages";
      run = Fig04_expected_messages.run;
    };
    {
      id = "fig05";
      figure = "Figure 5";
      title = "Response time of feedback biasing methods";
      run = Fig05_response_time.run;
    };
    {
      id = "fig06";
      figure = "Figure 6";
      title = "Quality of the reported rate";
      run = Fig06_feedback_quality.run;
    };
    {
      id = "fig07";
      figure = "Figure 7";
      title = "Throughput scaling under independent loss";
      run = Fig07_scaling.run;
    };
    {
      id = "fig09";
      figure = "Figure 9";
      title = "1 TFMCC + 15 TCP over a single 8 Mbit/s bottleneck";
      run = Fig09_single_bottleneck.run;
    };
    {
      id = "fig10";
      figure = "Figure 10";
      title = "1 TFMCC + 16 TCP on individual 1 Mbit/s bottlenecks";
      run = Fig10_tail_circuits.run;
    };
    {
      id = "fig11";
      figure = "Figure 11";
      title = "Responsiveness to changes in the loss rate";
      run = Fig11_loss_responsiveness.run;
    };
    {
      id = "fig12";
      figure = "Figure 12";
      title = "Rate of initial RTT measurements";
      run = Fig12_rtt_measurements.run;
    };
    {
      id = "fig13";
      figure = "Figure 13";
      title = "Responsiveness to changes in the RTT";
      run = Fig13_rtt_change.run;
    };
    {
      id = "fig14";
      figure = "Figure 14";
      title = "Maximum slowstart rate";
      run = Fig14_slowstart.run;
    };
    {
      id = "fig15";
      figure = "Figure 15";
      title = "Late join of a low-rate receiver";
      run = Fig15_late_join.run;
    };
    {
      id = "fig16";
      figure = "Figure 16";
      title = "Late join with an additional TCP on the slow link";
      run = Fig15_late_join.run_with_tail_tcp;
    };
    {
      id = "fig17";
      figure = "Figure 17";
      title = "Loss events per RTT (App. A)";
      run = Fig17_loss_events.run;
    };
    {
      id = "fig18";
      figure = "Figure 18";
      title = "Competing TCP traffic on return paths (App. D)";
      run = Fig18_return_traffic.run;
    };
    {
      id = "fig19";
      figure = "Figure 19";
      title = "Lossy return paths (App. D)";
      run = Fig19_lossy_return.run;
    };
    {
      id = "fig20";
      figure = "Figure 20";
      title = "Responsiveness to network delay (App. D)";
      run = Fig20_delay_responsiveness.run;
    };
    {
      id = "fig21";
      figure = "Figure 21";
      title = "Responsiveness to increased congestion (App. D)";
      run = Fig21_flow_doubling.run;
    };
    {
      id = "cmp01";
      figure = "Section 5";
      title = "TFMCC vs PGMCC: smoothness and fairness";
      run = Cmp01_pgmcc.run;
    };
    {
      id = "cmp02";
      figure = "Section 5";
      title = "TEAR vs TFRC vs TCP on a lossy path";
      run = Cmp02_tear.run;
    };
    {
      id = "cmp03";
      figure = "Section 5";
      title = "TFMCC + PGMCC + TCP coexistence";
      run = Cmp03_coexistence.run;
    };
    {
      id = "abl01";
      figure = "Ablation";
      title = "Cancellation threshold zeta";
      run = Abl01_zeta.run;
    };
    {
      id = "abl02";
      figure = "Ablation";
      title = "Timer bias method (protocol level)";
      run = Abl02_bias.run;
    };
    {
      id = "abl03";
      figure = "Ablation";
      title = "WALI loss-history depth";
      run = Abl03_wali.run;
    };
    {
      id = "abl04";
      figure = "Ablation";
      title = "Drop-tail vs RED bottleneck";
      run = Abl04_queue.run;
    };
    {
      id = "abl05";
      figure = "Ablation";
      title = "Previous-CLR memory (App. C)";
      run = Abl05_remember_clr.run;
    };
    {
      id = "abl07";
      figure = "Ablation";
      title = "TFMCC vs non-TCP cross traffic";
      run = Abl07_cross_traffic.run;
    };
    {
      id = "ext01";
      figure = "Section 6.1";
      title = "Feedback aggregation tree vs end-to-end suppression";
      run = Ext01_aggregation.run;
    };
    {
      id = "ext02";
      figure = "Section 6.1";
      title = "Equation-driven receiver-driven layered multicast";
      run = Ext02_layered.run;
    };
    {
      id = "abl08";
      figure = "Ablation";
      title = "App. A loss-history remodel";
      run = Abl08_remodel.run;
    };
    {
      id = "ext03";
      figure = "Extension";
      title = "TFMCC over a transit-stub internet";
      run = Ext03_transit_stub.run;
    };
    {
      id = "abl06";
      figure = "Ablation";
      title = "Initial RTT value";
      run = Abl06_initial_rtt.run;
    };
    {
      id = "rob01";
      figure = "Robustness";
      title = "CLR crash (silent leave) and sender failover";
      run = Rob01_clr_crash.run;
    };
    {
      id = "rob02";
      figure = "Robustness";
      title = "Subtree partition: starvation decay and recovery";
      run = Rob02_partition.run;
    };
    {
      id = "rob03";
      figure = "Robustness";
      title = "Corrupted / duplicated / reordered packets";
      run = Rob03_corruption.run;
    };
    {
      id = "rob04";
      figure = "Robustness";
      title = "Byzantine understater: group capture via a tiny consistent rate";
      run = Rob04_understater.run;
    };
    {
      id = "rob05";
      figure = "Robustness";
      title = "Byzantine RTT liar: forged tiny RTT to win the CLR election";
      run = Rob05_rtt_liar.run;
    };
    {
      id = "rob06";
      figure = "Robustness";
      title = "Byzantine spammer: feedback flooding and honest-report suppression";
      run = Rob06_spam_suppression.run;
    };
    {
      id = "rob07";
      figure = "Robustness";
      title = "Defense ablation scorecard: every attack, defenses off vs on";
      run = Rob07_defense_ablation.run;
    };
    {
      id = "chk01";
      figure = "Checker";
      title = "Differential oracle: TFMCC with one receiver vs unicast TFRC";
      run = Chk01_differential.run;
    };
    {
      id = "chk02";
      figure = "Checker";
      title = "Equation oracle: sender rate vs Padhye model at the receiver";
      run = Chk02_equation.run;
    };
  ]

let find id =
  let id = String.lowercase_ascii id in
  List.find_opt (fun e -> e.id = id) all

