(* Integration tests: the full TFMCC protocol stack over the packet
   simulator — convergence, CLR dynamics, fairness, feedback scaling. *)

let cfg = Tfmcc_core.Config.default

(* A star with per-receiver links; returns the pieces used by most
   tests. *)
let make_star ?(seed = 21) ?(cfg = cfg) ?(link_bps = 1e6) ?(delays = [| 0.02 |])
    ?losses () =
  let st =
    Experiments.Scenario.star ~seed ~cfg ~link_bps ~link_delays:delays
      ?link_losses:losses ()
  in
  (st.Experiments.Scenario.s_sc, st)

let run sc t = Experiments.Scenario.run_until sc t

let test_converges_to_bottleneck () =
  let sc, st = make_star ~link_bps:1e6 ~delays:[| 0.02 |] () in
  Tfmcc_core.Session.start st.Experiments.Scenario.s_session ~at:0.;
  run sc 60.;
  let kbps =
    Experiments.Scenario.mean_throughput_kbps sc ~flow:Experiments.Scenario.tfmcc_flow
      ~t_start:20. ~t_end:60.
  in
  Alcotest.(check bool)
    (Printf.sprintf "utilization 70-105%% (got %.0f kbit/s)" kbps)
    true
    (kbps > 700. && kbps < 1050.)

let test_slowstart_overshoot_bounded () =
  let sc, st = make_star ~link_bps:1e6 ~delays:[| 0.02 |] () in
  let snd = Tfmcc_core.Session.sender st.Experiments.Scenario.s_session in
  Tfmcc_core.Session.start st.Experiments.Scenario.s_session ~at:0.;
  let peak = ref 0. in
  let rec poll t =
    if t < 60. then
      ignore
        (Netsim.Engine.at sc.Experiments.Scenario.engine ~time:t (fun () ->
             if Tfmcc_core.Sender.in_slowstart snd then begin
               peak := Float.max !peak (Tfmcc_core.Sender.rate_bytes_per_s snd);
               poll (t +. 0.05)
             end))
  in
  poll 0.05;
  run sc 60.;
  Alcotest.(check bool) "slowstart ended" false (Tfmcc_core.Sender.in_slowstart snd);
  (* d = 2 limits the overshoot to ~twice the bottleneck. *)
  Alcotest.(check bool)
    (Printf.sprintf "peak %.0f <= ~2.4x bottleneck" !peak)
    true
    (!peak <= 2.4 *. 125_000.)

let test_clr_is_worst_receiver () =
  let sc, st =
    make_star ~link_bps:50e6
      ~delays:[| 0.02; 0.02; 0.02 |]
      ~losses:[| 0.001; 0.05; 0.005 |]
      ()
  in
  Tfmcc_core.Session.start st.Experiments.Scenario.s_session ~at:0.;
  run sc 60.;
  let snd = Tfmcc_core.Session.sender st.Experiments.Scenario.s_session in
  let worst = Netsim.Node.id st.Experiments.Scenario.s_rx_nodes.(1) in
  (match Tfmcc_core.Sender.clr snd with
  | Some id -> Alcotest.(check int) "CLR = 5% loss receiver" worst id
  | None -> Alcotest.fail "no CLR elected");
  let rx1 =
    Tfmcc_core.Session.receiver st.Experiments.Scenario.s_session ~node_id:worst
  in
  Alcotest.(check bool) "worst receiver knows it is CLR" true
    (Tfmcc_core.Receiver.is_clr rx1)

let test_rate_tracks_worst_receiver_equation () =
  let sc, st =
    make_star ~link_bps:100e6 ~delays:[| 0.025 |] ~losses:[| 0.02 |] ()
  in
  Tfmcc_core.Session.start st.Experiments.Scenario.s_session ~at:0.;
  let rx = List.hd (Tfmcc_core.Session.receivers st.Experiments.Scenario.s_session) in
  let snd = Tfmcc_core.Session.sender st.Experiments.Scenario.s_session in
  (* The instantaneous estimate fluctuates; compare time averages. *)
  let p_acc = ref 0. and r_acc = ref 0. and samples = ref 0 in
  Experiments.Scenario.sample_every sc ~dt:1. ~t_end:120. (fun t ->
      if t >= 40. then begin
        p_acc := !p_acc +. Tfmcc_core.Receiver.loss_event_rate rx;
        r_acc := !r_acc +. Tfmcc_core.Sender.rate_bytes_per_s snd;
        incr samples
      end);
  run sc 120.;
  let p = !p_acc /. float_of_int !samples in
  Alcotest.(check bool)
    (Printf.sprintf "mean measured p near 2%% (got %.3f)" p)
    true
    (p > 0.008 && p < 0.04);
  let rate = !r_acc /. float_of_int !samples in
  let expect = Tcp_model.Padhye.throughput ~b:cfg.b ~s:1000 ~rtt:0.055 0.02 in
  Alcotest.(check bool)
    (Printf.sprintf "mean rate %.0f within 3x of equation %.0f" rate expect)
    true
    (rate > expect /. 3. && rate < expect *. 3.)

let test_join_drops_leave_recovers () =
  let sc, st =
    make_star ~link_bps:50e6
      ~delays:[| 0.02; 0.02 |]
      ~losses:[| 0.002; 0.08 |]
      ()
  in
  let session = st.Experiments.Scenario.s_session in
  let rx_good =
    Tfmcc_core.Session.receiver session
      ~node_id:(Netsim.Node.id st.Experiments.Scenario.s_rx_nodes.(0))
  in
  let rx_bad =
    Tfmcc_core.Session.receiver session
      ~node_id:(Netsim.Node.id st.Experiments.Scenario.s_rx_nodes.(1))
  in
  Tfmcc_core.Receiver.join rx_good;
  Tfmcc_core.Session.start ~join_receivers:false session ~at:0.;
  let eng = sc.Experiments.Scenario.engine in
  ignore (Netsim.Engine.at eng ~time:40. (fun () -> Tfmcc_core.Receiver.join rx_bad));
  ignore (Netsim.Engine.at eng ~time:80. (fun () -> Tfmcc_core.Receiver.leave rx_bad ()));
  run sc 130.;
  Alcotest.(check bool) "bad receiver left" false (Tfmcc_core.Receiver.joined rx_bad);
  Alcotest.(check bool) "good receiver still in" true (Tfmcc_core.Receiver.joined rx_good)

let test_rate_levels_around_join_leave () =
  let sc, st =
    make_star ~link_bps:50e6
      ~delays:[| 0.02; 0.02 |]
      ~losses:[| 0.002; 0.08 |]
      ()
  in
  let session = st.Experiments.Scenario.s_session in
  let rx_good =
    Tfmcc_core.Session.receiver session
      ~node_id:(Netsim.Node.id st.Experiments.Scenario.s_rx_nodes.(0))
  in
  let rx_bad =
    Tfmcc_core.Session.receiver session
      ~node_id:(Netsim.Node.id st.Experiments.Scenario.s_rx_nodes.(1))
  in
  Tfmcc_core.Receiver.join rx_good;
  Tfmcc_core.Session.start ~join_receivers:false session ~at:0.;
  let eng = sc.Experiments.Scenario.engine in
  let snd = Tfmcc_core.Session.sender session in
  let rate_before = ref 0. and rate_during = ref 0. and rate_after = ref 0. in
  ignore
    (Netsim.Engine.at eng ~time:40. (fun () ->
         rate_before := Tfmcc_core.Sender.rate_bytes_per_s snd;
         Tfmcc_core.Receiver.join rx_bad));
  ignore
    (Netsim.Engine.at eng ~time:80. (fun () ->
         rate_during := Tfmcc_core.Sender.rate_bytes_per_s snd;
         Tfmcc_core.Receiver.leave rx_bad ()));
  run sc 140.;
  rate_after := Tfmcc_core.Sender.rate_bytes_per_s snd;
  Alcotest.(check bool)
    (Printf.sprintf "8%%-loss join cuts rate (%.0f -> %.0f)" !rate_before !rate_during)
    true
    (!rate_during < 0.6 *. !rate_before);
  Alcotest.(check bool)
    (Printf.sprintf "leave recovers (%.0f -> %.0f)" !rate_during !rate_after)
    true
    (!rate_after > 2. *. !rate_during)

let test_clr_timeout_without_explicit_leave () =
  let sc, st =
    make_star ~link_bps:50e6
      ~delays:[| 0.02; 0.02 |]
      ~losses:[| 0.002; 0.08 |]
      ()
  in
  let session = st.Experiments.Scenario.s_session in
  Tfmcc_core.Session.start session ~at:0.;
  let eng = sc.Experiments.Scenario.engine in
  let snd = Tfmcc_core.Session.sender session in
  let rx_bad =
    Tfmcc_core.Session.receiver session
      ~node_id:(Netsim.Node.id st.Experiments.Scenario.s_rx_nodes.(1))
  in
  (* Crash (no leave report) at t = 60. *)
  ignore
    (Netsim.Engine.at eng ~time:60. (fun () ->
         Tfmcc_core.Receiver.leave rx_bad ~explicit_leave:false ()));
  run sc 200.;
  Alcotest.(check bool) "CLR timeout fired" true (Tfmcc_core.Sender.clr_timeouts snd >= 1);
  (match Tfmcc_core.Sender.clr snd with
  | Some id ->
      Alcotest.(check bool) "dead receiver no longer CLR" true
        (id <> Netsim.Node.id st.Experiments.Scenario.s_rx_nodes.(1))
  | None -> ());
  let rate = Tfmcc_core.Sender.rate_bytes_per_s snd in
  Alcotest.(check bool)
    (Printf.sprintf "rate recovered after timeout (%.0f)" rate)
    true
    (rate > 100_000.)

let test_partition_recovery () =
  (* The CLR's path fails outright (no leave report possible): the sender
     must time the CLR out and recover with the remaining receiver. *)
  let sc, st =
    make_star ~link_bps:50e6
      ~delays:[| 0.02; 0.02 |]
      ~losses:[| 0.002; 0.08 |]
      ()
  in
  let session = st.Experiments.Scenario.s_session in
  Tfmcc_core.Session.start session ~at:0.;
  let eng = sc.Experiments.Scenario.engine in
  let snd = Tfmcc_core.Session.sender session in
  ignore
    (Netsim.Engine.at eng ~time:60. (fun () ->
         let fwd, bwd = st.Experiments.Scenario.s_rx_links.(1) in
         Netsim.Link.set_up fwd false;
         Netsim.Link.set_up bwd false));
  run sc 220.;
  Alcotest.(check bool) "CLR timed out" true (Tfmcc_core.Sender.clr_timeouts snd >= 1);
  (match Tfmcc_core.Sender.clr snd with
  | Some id ->
      Alcotest.(check bool) "partitioned receiver is not CLR" true
        (id <> Netsim.Node.id st.Experiments.Scenario.s_rx_nodes.(1))
  | None -> ());
  Alcotest.(check bool)
    (Printf.sprintf "rate recovered (%.0f B/s)"
       (Tfmcc_core.Sender.rate_bytes_per_s snd))
    true
    (Tfmcc_core.Sender.rate_bytes_per_s snd > 100_000.)

let test_feedback_implosion_avoided () =
  (* Many receivers behind one bottleneck: reports per round must stay
     tiny compared to the group size. *)
  let n = 60 in
  let sc, st =
    make_star ~link_bps:1e6 ~delays:(Array.make n 0.02) ()
  in
  Tfmcc_core.Session.start st.Experiments.Scenario.s_session ~at:0.;
  run sc 40.;
  let snd = Tfmcc_core.Session.sender st.Experiments.Scenario.s_session in
  let rounds = Stdlib.max 1 (Tfmcc_core.Sender.round snd) in
  let reports = Tfmcc_core.Sender.reports_received snd in
  let per_round = float_of_int reports /. float_of_int rounds in
  Alcotest.(check bool)
    (Printf.sprintf "reports/round %.1f << n=%d" per_round n)
    true
    (per_round < float_of_int n /. 2.);
  (* And suppression actually fired somewhere. *)
  let suppressed =
    List.fold_left
      (fun acc r -> acc + Tfmcc_core.Receiver.timers_suppressed r)
      0
      (Tfmcc_core.Session.receivers st.Experiments.Scenario.s_session)
  in
  Alcotest.(check bool) "timers were suppressed" true (suppressed > 0)

let test_clock_skew_harmless () =
  (* One receiver's clock is an hour ahead; its RTT measurement and the
     protocol behaviour must be unaffected (§2.4.3). *)
  let e = Netsim.Engine.create ~seed:31 () in
  let topo = Netsim.Topology.create e in
  let sender = Netsim.Topology.add_node topo in
  let rx = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:1e6 ~delay_s:0.02 sender rx);
  let session =
    Tfmcc_core.Session.build (Netsim_env.backend topo ~session:1) ~session:1
      ~sender ~receivers:[ rx ] ~clock_offsets:[ 3600. ] ()
  in
  Tfmcc_core.Session.start session ~at:0.;
  Netsim.Engine.run ~until:30. e;
  let r = List.hd (Tfmcc_core.Session.receivers session) in
  Alcotest.(check bool) "RTT measured" true (Tfmcc_core.Receiver.has_rtt_measurement r);
  let rtt = Tfmcc_core.Receiver.rtt r in
  Alcotest.(check bool)
    (Printf.sprintf "RTT plausible despite skew (%.3f)" rtt)
    true
    (rtt > 0.03 && rtt < 1.0)

let test_all_receivers_get_data () =
  let n = 10 in
  let sc, st = make_star ~link_bps:5e6 ~delays:(Array.make n 0.01) () in
  Tfmcc_core.Session.start st.Experiments.Scenario.s_session ~at:0.;
  run sc 20.;
  List.iter
    (fun r ->
      Alcotest.(check bool) "receiver got data" true
        (Tfmcc_core.Receiver.packets_received r > 100))
    (Tfmcc_core.Session.receivers st.Experiments.Scenario.s_session)

let test_sender_stop_halts () =
  let sc, st = make_star ~link_bps:1e6 ~delays:[| 0.02 |] () in
  Tfmcc_core.Session.start st.Experiments.Scenario.s_session ~at:0.;
  run sc 10.;
  Tfmcc_core.Session.stop st.Experiments.Scenario.s_session;
  let rx = List.hd (Tfmcc_core.Session.receivers st.Experiments.Scenario.s_session) in
  let at_stop = Tfmcc_core.Receiver.packets_received rx in
  run sc 20.;
  (* Packets already in flight at stop time may still arrive. *)
  let extra = Tfmcc_core.Receiver.packets_received rx - at_stop in
  Alcotest.(check bool)
    (Printf.sprintf "only in-flight packets after stop (%d)" extra)
    true (extra <= 5)

let test_fairness_with_tcp () =
  let d =
    Experiments.Scenario.dumbbell ~seed:23 ~bottleneck_bps:4e6 ~delay_s:0.02
      ~n_tfmcc_rx:1 ~n_tcp:3 ()
  in
  let sc = d.Experiments.Scenario.sc in
  Tfmcc_core.Session.start d.Experiments.Scenario.session ~at:0.;
  run sc 120.;
  let tfmcc =
    Experiments.Scenario.mean_throughput_kbps sc ~flow:Experiments.Scenario.tfmcc_flow
      ~t_start:40. ~t_end:120.
  in
  let tcp =
    List.fold_left
      (fun acc i ->
        acc
        +. Experiments.Scenario.mean_throughput_kbps sc
             ~flow:(Experiments.Scenario.tcp_flow i) ~t_start:40. ~t_end:120.)
      0. [ 0; 1; 2 ]
    /. 3.
  in
  let ratio = tfmcc /. tcp in
  Alcotest.(check bool)
    (Printf.sprintf "TCP-friendly (ratio %.2f)" ratio)
    true
    (ratio > 0.33 && ratio < 3.

)

let test_smoother_than_tcp () =
  let d =
    Experiments.Scenario.dumbbell ~seed:29 ~bottleneck_bps:4e6 ~delay_s:0.02
      ~n_tfmcc_rx:1 ~n_tcp:3 ()
  in
  let sc = d.Experiments.Scenario.sc in
  Tfmcc_core.Session.start d.Experiments.Scenario.session ~at:0.;
  run sc 120.;
  let cov flow =
    Experiments.Scenario.throughput_series sc ~flow ~bin:1. ~t_end:120.
    |> Array.to_list
    |> List.filter (fun (t, _) -> t >= 40.)
    |> List.map snd |> Array.of_list
    |> Stats.Descriptive.coefficient_of_variation
  in
  let c_tfmcc = cov Experiments.Scenario.tfmcc_flow in
  let c_tcp = cov (Experiments.Scenario.tcp_flow 0) in
  Alcotest.(check bool)
    (Printf.sprintf "TFMCC smoother (%.2f vs TCP %.2f)" c_tfmcc c_tcp)
    true (c_tfmcc < c_tcp)

let test_remember_clr_switchback () =
  (* App. C: with the previous-CLR memory on, a transient CLR switch
     flips back without waiting for new feedback; behaviour must stay
     sane and at least as conservative. *)
  let cfg_mem = { cfg with Tfmcc_core.Config.remember_clr = true } in
  let sc, st =
    make_star ~cfg:cfg_mem ~link_bps:50e6
      ~delays:[| 0.02; 0.02 |]
      ~losses:[| 0.01; 0.02 |]
      ()
  in
  Tfmcc_core.Session.start st.Experiments.Scenario.s_session ~at:0.;
  run sc 60.;
  let snd = Tfmcc_core.Session.sender st.Experiments.Scenario.s_session in
  Alcotest.(check bool) "protocol alive with remember_clr" true
    (Tfmcc_core.Sender.rate_bytes_per_s snd > 1000.);
  Alcotest.(check bool) "a CLR exists" true (Tfmcc_core.Sender.clr snd <> None)

let test_rtt_measurements_spread () =
  (* Several receivers obtain real RTT measurements through report echoes
     within a reasonable time (Fig. 12 mechanism). *)
  let n = 20 in
  let sc, st = make_star ~link_bps:1e6 ~delays:(Array.make n 0.02) () in
  Tfmcc_core.Session.start st.Experiments.Scenario.s_session ~at:0.;
  run sc 60.;
  let with_rtt =
    Tfmcc_core.Session.receivers_with_rtt st.Experiments.Scenario.s_session
  in
  Alcotest.(check bool)
    (Printf.sprintf "many receivers measured RTT (%d/%d)" with_rtt n)
    true
    (with_rtt >= n / 2)

(* Allocation budget of the whole simulated stack: minor-heap words per
   simulated second of a warmed-up 4-receiver star at 1 Mbit/s (20 ms
   links).  Warm up to 30 s, settle one more second so lazy growth
   (tables, the packet arena) lands outside the window, then average 60
   s.  Minor words are exactly reproducible, so the budget is absolute and
   machine-independent: 1.10x the words measured once a routed hop
   allocated nothing (the receivers' reports cross the hub on a dense
   next-hop table), 5385.38 with the null sink and 5447.33 with
   collection enabled.  History: 19786.15 and 19848.10 under budgets of
   21764 and 21832, then 10260.28 and 10322.23 under 11287 and 11355
   once no float crossed a module boundary on the receiver's
   per-delivery path (unboxed clock cell, deadlines summed in the heap,
   allocation-free receiver), then 5491.55 and 5553.50 under 6041 and
   6109 once a simulator hop allocated nothing (the link's transmission
   time and end kept in its own cell, the monitor tap's delay and time
   read from the delay ring and the clock cell).  It assumes the
   domain's packet arena is not drained (earlier tests leave most of its
   4096 records free): a drained arena sends every packet down the heap
   path, which read about 25300 words under the 11287 budget. *)
let test_minor_words_budget ~obs ~budget () =
  let st =
    Experiments.Scenario.star ~seed:77 ~obs ~link_bps:1e6
      ~link_delays:(Array.make 4 0.02) ()
  in
  Tfmcc_core.Session.start st.Experiments.Scenario.s_session ~at:0.;
  run st.Experiments.Scenario.s_sc 31.;
  let w0 = Gc.minor_words () in
  for t = 32 to 91 do
    run st.Experiments.Scenario.s_sc (float_of_int t)
  done;
  let w = (Gc.minor_words () -. w0) /. 60. in
  if w > budget then
    Alcotest.failf "%.2f minor words per simulated second (budget %.0f)" w budget

let () =
  Alcotest.run "integration"
    [
      ( "tfmcc-protocol",
        [
          Alcotest.test_case "converges to bottleneck" `Quick test_converges_to_bottleneck;
          Alcotest.test_case "slowstart bounded" `Quick test_slowstart_overshoot_bounded;
          Alcotest.test_case "CLR = worst receiver" `Quick test_clr_is_worst_receiver;
          Alcotest.test_case "tracks equation rate" `Slow test_rate_tracks_worst_receiver_equation;
          Alcotest.test_case "join/leave membership" `Quick test_join_drops_leave_recovers;
          Alcotest.test_case "join drops, leave recovers" `Slow test_rate_levels_around_join_leave;
          Alcotest.test_case "CLR timeout" `Slow test_clr_timeout_without_explicit_leave;
          Alcotest.test_case "partition recovery" `Slow test_partition_recovery;
          Alcotest.test_case "no feedback implosion" `Slow test_feedback_implosion_avoided;
          Alcotest.test_case "clock skew harmless" `Quick test_clock_skew_harmless;
          Alcotest.test_case "multicast delivery" `Quick test_all_receivers_get_data;
          Alcotest.test_case "stop halts" `Quick test_sender_stop_halts;
          Alcotest.test_case "RTT measurements spread" `Slow test_rtt_measurements_spread;
          Alcotest.test_case "minor words budget, null sink" `Quick
            (test_minor_words_budget ~obs:Obs.Sink.null ~budget:5_924.);
          Alcotest.test_case "minor words budget, enabled sink" `Quick
            (test_minor_words_budget ~obs:(Obs.Sink.create ()) ~budget:5_992.);
        ] );
      ( "tcp-friendliness",
        [
          Alcotest.test_case "fair with TCP" `Slow test_fairness_with_tcp;
          Alcotest.test_case "smoother than TCP" `Slow test_smoother_than_tcp;
        ] );
      ( "extensions",
        [ Alcotest.test_case "remember_clr (App. C)" `Slow test_remember_clr_switchback ] );
    ]
