(* Tests for the TCP Reno agent and the throughput models. *)

let check_float = Alcotest.(check (float 1e-9))

(* -------------------------------------------------------- Rto_estimator *)

let test_rto_initial () =
  let r = Tcp.Rto_estimator.create () in
  check_float "initial RTO" 3. (Tcp.Rto_estimator.rto r)

let test_rto_first_sample () =
  let r = Tcp.Rto_estimator.create () in
  Tcp.Rto_estimator.observe r 0.1;
  (* srtt + 4*rttvar = 0.1 + 4*0.05 = 0.3, clamped to the 1 s minimum *)
  check_float "rto after first sample" 1.0 (Tcp.Rto_estimator.rto r);
  (* srtt = sample and rttvar = sample/2: 0.5 + 4*0.25 *)
  let r2 = Tcp.Rto_estimator.create () in
  Tcp.Rto_estimator.observe r2 0.5;
  check_float "unclamped rto" 1.5 (Tcp.Rto_estimator.rto r2)

let test_rto_backoff () =
  let r = Tcp.Rto_estimator.create () in
  Tcp.Rto_estimator.observe r 0.5;
  let base = Tcp.Rto_estimator.rto r in
  Tcp.Rto_estimator.backoff r;
  check_float "doubled" (2. *. base) (Tcp.Rto_estimator.rto r);
  Tcp.Rto_estimator.backoff r;
  check_float "quadrupled" (4. *. base) (Tcp.Rto_estimator.rto r);
  (* A new sample resets the backoff: srtt 0.5, rttvar 0.75 * 0.25. *)
  Tcp.Rto_estimator.observe r 0.5;
  check_float "reset" (0.5 +. (4. *. 0.1875)) (Tcp.Rto_estimator.rto r)

let test_rto_min_clamp () =
  let r = Tcp.Rto_estimator.create () in
  Tcp.Rto_estimator.observe r 0.001;
  Alcotest.(check bool) "clamped to min" true (Tcp.Rto_estimator.rto r >= 1.0)

let test_rto_converges () =
  let r = Tcp.Rto_estimator.create () in
  for _ = 1 to 100 do
    Tcp.Rto_estimator.observe r 2.5
  done;
  (* srtt converges on the sample and rttvar shrinks towards 0, so the
     timeout approaches the sample itself. *)
  Alcotest.(check (float 0.04)) "rto converges" 2.5 (Tcp.Rto_estimator.rto r)

(* ------------------------------------------------------------ Tcp_model *)

let test_padhye_monotone_in_p () =
  let prev = ref infinity in
  List.iter
    (fun p ->
      let x = Tcp_model.Padhye.throughput ~s:1000 ~rtt:0.1 p in
      Alcotest.(check bool) (Printf.sprintf "decreasing at p=%g" p) true (x < !prev);
      prev := x)
    [ 0.0001; 0.001; 0.01; 0.05; 0.1; 0.3 ]

let test_padhye_scales_inverse_rtt () =
  let a = Tcp_model.Padhye.throughput ~s:1000 ~rtt:0.05 0.01 in
  let b = Tcp_model.Padhye.throughput ~s:1000 ~rtt:0.1 0.01 in
  Alcotest.(check (float 1.)) "half RTT, double rate" (2. *. b) a

let test_padhye_inverse_roundtrip () =
  List.iter
    (fun p ->
      let rate = Tcp_model.Padhye.throughput ~s:1000 ~rtt:0.08 p in
      let p' = Tcp_model.Padhye.inverse_loss ~s:1000 ~rtt:0.08 rate in
      Alcotest.(check (float 1e-6)) (Printf.sprintf "roundtrip p=%g" p) p p')
    [ 0.0001; 0.001; 0.01; 0.05; 0.1 ]

let test_padhye_known_magnitude () =
  (* p=10%, RTT=50ms, s=1000B: the paper says the fair rate is around
     300 kbit/s (Section 3). *)
  let bytes_per_s = Tcp_model.Padhye.throughput ~s:1000 ~rtt:0.05 0.1 in
  let kbit = bytes_per_s *. 8. /. 1000. in
  Alcotest.(check bool)
    (Printf.sprintf "fair rate ~300 kbit/s (got %.0f)" kbit)
    true
    (kbit > 200. && kbit < 450.)

let test_loss_events_per_rtt_max () =
  (* Appendix A: the curve peaks at ~0.13 loss events per RTT (the paper's
     curve corresponds to b=2; with b=1 the peak is ~0.19). *)
  let peak b =
    let best = ref 0. in
    let p = ref 1e-4 in
    while !p <= 1.0 do
      let v = Tcp_model.Padhye.loss_events_per_rtt ~b !p in
      if v > !best then best := v;
      p := !p *. 1.05
    done;
    !best
  in
  let b2 = peak 2. and b1 = peak 1. in
  Alcotest.(check bool)
    (Printf.sprintf "b=2 max ~0.13 (got %.3f)" b2)
    true
    (b2 > 0.11 && b2 < 0.15);
  Alcotest.(check bool)
    (Printf.sprintf "b=1 max ~0.19 (got %.3f)" b1)
    true
    (b1 > 0.16 && b1 < 0.22)

(* The Mathis rate T = (s / R) · √(3/2) / √p (paper Eq. (4)). *)
let mathis_rate ~s ~rtt p = float_of_int s /. rtt *. sqrt 1.5 /. sqrt p

let test_mathis_inverse_exact () =
  List.iter
    (fun p ->
      let rate = mathis_rate ~s:1000 ~rtt:0.1 p in
      Alcotest.(check (float 1e-9)) "exact inverse" (1. /. p)
        (Tcp_model.Mathis.initial_loss_interval ~s:1000 ~rtt:0.1 ~rate))
    [ 0.001; 0.01; 0.1 ]

let test_mathis_more_conservative () =
  (* Mathis predicts a lower rate than Padhye at low p?  Actually Mathis
     ignores timeouts so it predicts HIGHER at high p is false...  What
     App. B uses: inverse of Mathis gives a *larger* p for a given rate at
     moderate rates, i.e. a smaller (more conservative) initial interval is
     false too.  We just check the two agree within 2x at p=1%. *)
  let a = Tcp_model.Padhye.throughput ~s:1000 ~rtt:0.1 0.01 in
  (* The loss rate at which Mathis predicts Padhye's rate: b / a within
     (0.8, 2.5) is p' / p = (b / a)² within (0.64, 6.25). *)
  let p' = 1. /. Tcp_model.Mathis.initial_loss_interval ~s:1000 ~rtt:0.1 ~rate:a in
  Alcotest.(check bool) "same ballpark" true (p' /. 0.01 > 0.64 && p' /. 0.01 < 6.25)

let test_initial_loss_interval () =
  let rate = 125_000. (* 1 Mbit/s *) in
  let l0 = Tcp_model.Mathis.initial_loss_interval ~s:1000 ~rtt:0.1 ~rate in
  Alcotest.(check bool) "positive" true (l0 > 1.);
  (* doubling the rate should give a ~4x longer interval *)
  let l1 = Tcp_model.Mathis.initial_loss_interval ~s:1000 ~rtt:0.1 ~rate:(2. *. rate) in
  Alcotest.(check (float 0.1)) "quadratic in rate" 4. (l1 /. l0)

(* ---------------------------------------------------- end-to-end TCP *)

let dumbbell_on obs ~bandwidth_bps ~delay_s ~n_pairs =
  let e = Netsim.Engine.create ~obs () in
  let topo = Netsim.Topology.create e in
  let r1 = Netsim.Topology.add_node topo in
  let r2 = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.connect topo ~bandwidth_bps ~delay_s r1 r2);
  let senders = Netsim.Topology.add_nodes topo n_pairs in
  let receivers = Netsim.Topology.add_nodes topo n_pairs in
  Array.iter
    (fun s -> ignore (Netsim.Topology.connect topo ~bandwidth_bps:(bandwidth_bps *. 10.) ~delay_s:0.001 s r1))
    senders;
  Array.iter
    (fun r -> ignore (Netsim.Topology.connect topo ~bandwidth_bps:(bandwidth_bps *. 10.) ~delay_s:0.001 r2 r))
    receivers;
  (e, topo, senders, receivers)

let dumbbell = dumbbell_on Obs.Sink.null

let test_tcp_transfers_data () =
  let e, topo, s, r = dumbbell ~bandwidth_bps:1e6 ~delay_s:0.01 ~n_pairs:1 in
  let src = Tcp.Tcp_source.create topo ~conn:1 ~flow:1 ~src:s.(0) ~dst:r.(0) in
  let sink = Tcp.Tcp_sink.create topo ~conn:1 ~node:r.(0) in
  Tcp.Tcp_source.start src ~at:0.;
  Netsim.Engine.run ~until:10. e;
  Alcotest.(check bool) "received many segments" true
    (Tcp.Tcp_sink.segments_received sink > 100);
  (* The cumulative ACK the sink returns. *)
  Alcotest.(check bool) "acks advance" true (Tcp.Tcp_sink.next_expected sink > 100)

let test_tcp_utilizes_bottleneck () =
  let e, topo, s, r = dumbbell ~bandwidth_bps:1e6 ~delay_s:0.01 ~n_pairs:1 in
  let mon = Netsim.Monitor.create e in
  Netsim.Monitor.watch_node mon r.(0);
  let src = Tcp.Tcp_source.create topo ~conn:1 ~flow:1 ~src:s.(0) ~dst:r.(0) in
  let _sink = Tcp.Tcp_sink.create topo ~conn:1 ~node:r.(0) in
  Tcp.Tcp_source.start src ~at:0.;
  Netsim.Engine.run ~until:30. e;
  let bps = Netsim.Monitor.throughput_bps mon ~flow:1 ~t_start:5. ~t_end:30. in
  Alcotest.(check bool)
    (Printf.sprintf ">70%% utilization (got %.0f bps)" bps)
    true (bps > 0.7e6);
  Alcotest.(check bool)
    (Printf.sprintf "<=100%% of line rate (got %.0f bps)" bps)
    true (bps <= 1.01e6)

let test_tcp_experiences_loss_and_recovers () =
  let sink_obs = Obs.Sink.create () in
  let e, topo, s, r =
    dumbbell_on sink_obs ~bandwidth_bps:1e6 ~delay_s:0.01 ~n_pairs:1
  in
  let src = Tcp.Tcp_source.create topo ~conn:1 ~flow:1 ~src:s.(0) ~dst:r.(0) in
  let sink = Tcp.Tcp_sink.create topo ~conn:1 ~node:r.(0) in
  Tcp.Tcp_source.start src ~at:0.;
  Netsim.Engine.run ~until:30. e;
  (* The buffer is finite, so Reno must hit loss and retransmit; the sink
     must still end up with a contiguous prefix. *)
  Alcotest.(check bool) "some retransmits" true
    (Obs.Metrics.sum_counters sink_obs.Obs.Sink.metrics "tcp_retransmits_total" > 0);
  Alcotest.(check bool) "in-order prefix grows" true
    (Tcp.Tcp_sink.next_expected sink > 1000)

let test_tcp_two_flows_share () =
  let e, topo, s, r = dumbbell ~bandwidth_bps:2e6 ~delay_s:0.01 ~n_pairs:2 in
  let mon = Netsim.Monitor.create e in
  Netsim.Monitor.watch_node mon r.(0);
  Netsim.Monitor.watch_node mon r.(1);
  let src1 = Tcp.Tcp_source.create topo ~conn:1 ~flow:1 ~src:s.(0) ~dst:r.(0) in
  let _s1 = Tcp.Tcp_sink.create topo ~conn:1 ~node:r.(0) in
  let src2 = Tcp.Tcp_source.create topo ~conn:2 ~flow:2 ~src:s.(1) ~dst:r.(1) in
  let _s2 = Tcp.Tcp_sink.create topo ~conn:2 ~node:r.(1) in
  Tcp.Tcp_source.start src1 ~at:0.;
  Tcp.Tcp_source.start src2 ~at:0.1;
  Netsim.Engine.run ~until:60. e;
  let b1 = Netsim.Monitor.throughput_bps mon ~flow:1 ~t_start:10. ~t_end:60. in
  let b2 = Netsim.Monitor.throughput_bps mon ~flow:2 ~t_start:10. ~t_end:60. in
  let ratio = b1 /. b2 in
  Alcotest.(check bool)
    (Printf.sprintf "fair-ish share (ratio %.2f)" ratio)
    true
    (ratio > 0.4 && ratio < 2.5)

(* Minor words per data segment the sink receives, over 30 simulated
   seconds of one Reno connection on the dumbbell after a 10 s warm-up.
   Each segment's cost covers its whole round: the source's jittered
   emit, three routed hops out, the sink's ACK, three routed hops back
   and the source's ACK handling, with the loss recoveries of a full
   drop-tail bottleneck.  Minor words are exactly reproducible for the
   seed, so the budget is absolute: 1.10x the 21.19 measured once a
   routed hop allocated nothing, the source scheduled its emits and its
   timeout without a per-segment closure or boxed float, and both ends
   reused their packets' [Unicast] destination.  History: 85.09 before
   (7 words per next-hop lookup, 6 lookups per segment and its ACK). *)
let test_tcp_words_per_segment () =
  let e, topo, s, r = dumbbell ~bandwidth_bps:1e6 ~delay_s:0.01 ~n_pairs:1 in
  let src = Tcp.Tcp_source.create topo ~conn:1 ~flow:1 ~src:s.(0) ~dst:r.(0) in
  let sink = Tcp.Tcp_sink.create topo ~conn:1 ~node:r.(0) in
  Tcp.Tcp_source.start src ~at:0.;
  Netsim.Engine.run ~until:10. e;
  let seg0 = Tcp.Tcp_sink.segments_received sink in
  let w0 = Gc.minor_words () in
  Netsim.Engine.run ~until:40. e;
  let w = Gc.minor_words () -. w0 in
  let segs = Tcp.Tcp_sink.segments_received sink - seg0 in
  let per_seg = w /. float_of_int segs in
  let budget = 23.3 in
  if per_seg > budget then
    Alcotest.failf "%.2f minor words per segment (budget %.1f)" per_seg budget

let prop_padhye_inverse_monotone =
  QCheck.Test.make ~name:"padhye inverse decreasing in rate" ~count:100
    QCheck.(pair (float_range 1e3 1e7) (float_range 1.01 5.))
    (fun (rate, factor) ->
      let p1 = Tcp_model.Padhye.inverse_loss ~s:1000 ~rtt:0.1 rate in
      let p2 = Tcp_model.Padhye.inverse_loss ~s:1000 ~rtt:0.1 (rate *. factor) in
      p2 <= p1 +. 1e-12)

let () =
  Alcotest.run "tcp"
    [
      ( "rto",
        [
          Alcotest.test_case "initial" `Quick test_rto_initial;
          Alcotest.test_case "first sample" `Quick test_rto_first_sample;
          Alcotest.test_case "backoff" `Quick test_rto_backoff;
          Alcotest.test_case "min clamp" `Quick test_rto_min_clamp;
          Alcotest.test_case "converges" `Quick test_rto_converges;
        ] );
      ( "model",
        [
          Alcotest.test_case "padhye monotone in p" `Quick test_padhye_monotone_in_p;
          Alcotest.test_case "padhye ~ 1/RTT" `Quick test_padhye_scales_inverse_rtt;
          Alcotest.test_case "padhye inverse roundtrip" `Quick test_padhye_inverse_roundtrip;
          Alcotest.test_case "padhye known magnitude" `Quick test_padhye_known_magnitude;
          Alcotest.test_case "loss events per RTT peak" `Quick test_loss_events_per_rtt_max;
          Alcotest.test_case "mathis inverse exact" `Quick test_mathis_inverse_exact;
          Alcotest.test_case "mathis vs padhye ballpark" `Quick test_mathis_more_conservative;
          Alcotest.test_case "initial loss interval" `Quick test_initial_loss_interval;
        ] );
      ( "reno",
        [
          Alcotest.test_case "transfers data" `Quick test_tcp_transfers_data;
          Alcotest.test_case "utilizes bottleneck" `Slow test_tcp_utilizes_bottleneck;
          Alcotest.test_case "loss + recovery" `Slow test_tcp_experiences_loss_and_recovers;
          Alcotest.test_case "two flows share" `Slow test_tcp_two_flows_share;
          Alcotest.test_case "words per segment" `Quick test_tcp_words_per_segment;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest [ prop_padhye_inverse_monotone ]);
    ]
