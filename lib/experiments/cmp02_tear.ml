(* One lossy path per protocol run: src -- 20 Mbit/s, 30 ms RTT, 1% loss
   -- dst. *)
let build ~seed =
  let sc = Scenario.base ~seed () in
  let topo = sc.Scenario.topo in
  let a = Netsim.Topology.add_node topo in
  let b = Netsim.Topology.add_node topo in
  ignore
    (Netsim.Topology.connect topo
       ~loss_ab:
         (Netsim.Loss_model.bernoulli
            ~rng:(Netsim.Engine.split_rng sc.Scenario.engine)
            ~p:0.01)
       ~bandwidth_bps:20e6 ~delay_s:0.015 a b);
  Netsim.Monitor.watch_node sc.Scenario.monitor b;
  (sc, a, b)

let stats sc ~flow ~t_end =
  let xs =
    Scenario.throughput_series sc ~flow ~bin:1. ~t_end
    |> Array.to_list
    |> List.filter (fun (t, _) -> t >= t_end /. 4.)
    |> List.map snd |> Array.of_list
  in
  (Stats.Descriptive.mean xs, Stats.Descriptive.coefficient_of_variation xs)

let run ~mode ~seed =
  let t_end = Scenario.scale mode ~quick:120. ~full:300. in
  (* TFRC *)
  let sc1, a1, b1 = build ~seed in
  let tfrc = Tfrc.Tfrc_sender.create sc1.Scenario.topo ~conn:1 ~flow:1 ~src:a1 ~dst:b1 () in
  let _r1 = Tfrc.Tfrc_receiver.create sc1.Scenario.topo ~conn:1 ~node:b1 ~sender:a1 in
  Tfrc.Tfrc_sender.start tfrc ~at:0.;
  Scenario.run_until sc1 t_end;
  let tfrc_mean, tfrc_cov = stats sc1 ~flow:1 ~t_end in
  (* TEAR *)
  let sc2, a2, b2 = build ~seed in
  let tear = Tear.Sender.create sc2.Scenario.topo ~conn:1 ~flow:1 ~src:a2 ~dst:b2 () in
  let tear_rx = Tear.Receiver.create sc2.Scenario.topo ~conn:1 ~node:b2 ~sender:a2 in
  Tear.Sender.start tear ~at:0.;
  Scenario.run_until sc2 t_end;
  let tear_mean, tear_cov = stats sc2 ~flow:1 ~t_end in
  (* TCP reference *)
  let sc3, a3, b3 = build ~seed in
  let _tcp = Scenario.add_tcp sc3 ~conn:1 ~flow:1 ~src:a3 ~dst:b3 ~at:0. in
  Scenario.run_until sc3 t_end;
  let tcp_mean, tcp_cov = stats sc3 ~flow:1 ~t_end in
  [
    Series.make
      ~title:
        "Comparison (paper §5): TEAR vs TFRC vs TCP on a 1%-lossy 30 ms \
         path (kbit/s; mean and smoothness over the steady state)"
      ~xlabel:"protocol (0=TFRC, 1=TEAR, 2=TCP)"
      ~ylabels:[ "mean (kbit/s)"; "rate CoV" ]
      ~notes:
        [
          Printf.sprintf
            "TFRC %.0f (CoV %.2f) / TEAR %.0f (CoV %.2f) / TCP %.0f (CoV \
             %.2f) — paper: TEAR's emulation should do neither much \
             better nor much worse than the equation"
            tfrc_mean tfrc_cov tear_mean tear_cov tcp_mean tcp_cov;
          Printf.sprintf "TEAR completed %d window epochs"
            (Tear.Receiver.epochs_completed tear_rx);
        ]
      [
        (0., [ tfrc_mean; tfrc_cov ]);
        (1., [ tear_mean; tear_cov ]);
        (2., [ tcp_mean; tcp_cov ]);
      ];
  ]
