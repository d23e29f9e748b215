let run ~mode ~seed =
  let t_end = Scenario.scale mode ~quick:120. ~full:300. in
  let sc = Scenario.base ~seed () in
  let topo = sc.Scenario.topo in
  let left = Netsim.Topology.add_node topo in
  let right = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:6e6 ~delay_s:0.02 left right);
  let mk_left () =
    let n = Netsim.Topology.add_node topo in
    ignore (Netsim.Topology.connect topo ~bandwidth_bps:60e6 ~delay_s:0.001 n left);
    n
  in
  let mk_right () =
    let n = Netsim.Topology.add_node topo in
    ignore (Netsim.Topology.connect topo ~bandwidth_bps:60e6 ~delay_s:0.001 right n);
    n
  in
  (* TFMCC session (flow 1). *)
  let tf_sender = mk_left () and tf_rx = mk_right () in
  let session =
    Tfmcc_core.Session.build (Netsim_env.backend topo ~session:1) ~session:1
      ~sender:tf_sender ~receivers:[ tf_rx ] ()
  in
  Netsim.Monitor.watch_node_flow sc.Scenario.monitor tf_rx ~flow:1;
  (* PGMCC session (flow 2). *)
  let pg_sender = mk_left () and pg_rx = mk_right () in
  let pg_snd = Pgmcc.Sender.create topo ~session:2 ~node:pg_sender () in
  let pg_r = Pgmcc.Receiver.create topo ~session:2 ~node:pg_rx ~sender:pg_sender in
  Pgmcc.Receiver.join pg_r;
  Netsim.Monitor.watch_node_flow sc.Scenario.monitor pg_rx ~flow:2;
  (* TCP reference (flow 100). *)
  let tcp_src = mk_left () and tcp_dst = mk_right () in
  ignore (Scenario.add_tcp sc ~conn:1 ~flow:(Scenario.tcp_flow 0) ~src:tcp_src ~dst:tcp_dst ~at:0.);
  Tfmcc_core.Session.start session ~at:0.;
  Pgmcc.Sender.start pg_snd ~at:0.;
  Scenario.run_until sc t_end;
  let warmup = t_end /. 4. in
  let mean flow = Scenario.mean_throughput_kbps sc ~flow ~t_start:warmup ~t_end in
  let tfmcc = mean 1 and pgmcc = mean 2 and tcp = mean (Scenario.tcp_flow 0) in
  let jain = Stats.Descriptive.jain_index [| tfmcc; pgmcc; tcp |] in
  [
    Series.make
      ~title:
        "Coexistence: TFMCC + PGMCC + TCP sharing a 6 Mbit/s bottleneck \
         (fair share 2 Mbit/s each)"
      ~xlabel:"flow (0=TFMCC 1=PGMCC 2=TCP)"
      ~ylabels:[ "mean (kbit/s)" ]
      ~notes:
        [
          Printf.sprintf
            "TFMCC %.0f / PGMCC %.0f / TCP %.0f kbit/s; Jain index %.2f — \
             both multicast schemes claim TCP-friendliness, so all three \
             should hold a viable share (TFMCC's b=2 equation makes it \
             the most conservative of the three)"
            tfmcc pgmcc tcp jain;
        ]
      [ (0., [ tfmcc ]); (1., [ pgmcc ]); (2., [ tcp ]) ];
  ]
