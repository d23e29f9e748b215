open Tfmcc_core

let run ~mode ~seed =
  let t_end = Scenario.scale mode ~quick:90. ~full:240. in
  let stubs_per_transit = Scenario.scale mode ~quick:3 ~full:5 in
  let hosts_per_stub = Scenario.scale mode ~quick:4 ~full:10 in
  let sc = Scenario.base ~seed () in
  let topo = sc.Scenario.topo in
  let rng = Netsim.Engine.rng sc.Scenario.engine in
  let ts =
    Netsim.Topo_gen.transit_stub topo (Stats.Rng.split rng)
      ~stubs_per_transit ~hosts_per_stub ()
  in
  (* The sender is the first host; everyone else receives.  One stub link
     is congested (0.5 Mbit/s worth of CBR cross traffic on a 10 Mbit/s
     link would be invisible; instead, degrade one HOST link to
     0.4 Mbit/s to create the worst receiver). *)
  let sender_node = ts.Netsim.Topo_gen.hosts.(0) in
  let receivers_nodes =
    Array.sub ts.Netsim.Topo_gen.hosts 1 (Array.length ts.Netsim.Topo_gen.hosts - 1)
  in
  let n = Array.length receivers_nodes in
  (* Worst receiver: squeeze the link from its stub. *)
  let worst = receivers_nodes.(n - 1) in
  let worst_stub =
    (* its only neighbour is its stub; find it by probing the links *)
    let found = ref None in
    Array.iter
      (fun stub ->
        if Netsim.Topology.link_between topo stub worst <> None then found := Some stub)
      ts.Netsim.Topo_gen.stubs;
    Option.get !found
  in
  (* Replace by adding cross traffic that eats most of the host link. *)
  let cross_src = Netsim.Topology.add_node topo in
  ignore
    (Netsim.Topology.connect topo ~bandwidth_bps:10e6 ~delay_s:0.001 cross_src worst_stub);
  let cross =
    Netsim.Traffic.cbr topo ~flow:99 ~src:cross_src ~dst:worst ~rate_bps:1.6e6 ()
  in
  Netsim.Traffic.start cross ~at:0.;
  let session =
    Session.build
      (Netsim_env.backend topo ~session:Scenario.tfmcc_flow)
      ~session:Scenario.tfmcc_flow ~sender:sender_node
      ~receivers:(Array.to_list receivers_nodes) ()
  in
  Netsim.Monitor.watch_node_flow sc.Scenario.monitor worst ~flow:Scenario.tfmcc_flow;
  Session.start session ~at:0.;
  Scenario.run_until sc t_end;
  let sender_agent = Session.sender session in
  let rounds = Stdlib.max 1 (Sender.round sender_agent) in
  let reports_per_round =
    float_of_int (Sender.reports_received sender_agent) /. float_of_int rounds
  in
  let worst_goodput =
    Scenario.mean_throughput_kbps sc ~flow:Scenario.tfmcc_flow
      ~t_start:(t_end /. 3.) ~t_end
  in
  let clr_at_worst = Sender.clr sender_agent = Some (Netsim.Node.id worst) in
  let delay_spread =
    match Netsim.Monitor.delay_summary sc.Scenario.monitor ~flow:Scenario.tfmcc_flow with
    | Some s -> (s.Stats.Descriptive.p25, s.Stats.Descriptive.p75)
    | None -> (nan, nan)
  in
  [
    Series.make
      ~title:
        (Printf.sprintf
           "Extension: TFMCC over a transit-stub internet (%d receivers; \
            one host link congested to ~0.4 Mbit/s residual)"
           n)
      ~xlabel:"metric"
      ~ylabels:[ "value" ]
      ~notes:
        [
          "rows: 0 = goodput at the worst receiver (kbit/s; its residual \
           capacity is ~400), 1 = reports/round at the sender, 2 = CLR \
           sits at the congested receiver (1/0), 3/4 = p25/p75 one-way \
           delay at the worst receiver (ms)";
          "Section 3's claim in action: correlated tree loss keeps the \
           equation honest and the feedback sparse even on a real-shaped \
           topology";
        ]
      [
        (0., [ worst_goodput ]);
        (1., [ reports_per_round ]);
        (2., [ (if clr_at_worst then 1. else 0.) ]);
        (3., [ 1000. *. fst delay_spread ]);
        (4., [ 1000. *. snd delay_spread ]);
      ];
  ]
