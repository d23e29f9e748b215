open Tfmcc_core

let run ~mode ~seed =
  let n = Scenario.scale mode ~quick:200 ~full:1000 in
  let t_end = Scenario.scale mode ~quick:100. ~full:200. in
  let sc = Scenario.base ~seed () in
  let topo = sc.Scenario.topo in
  (* sender -- 1 Mbit/s bottleneck -- hub -- n receiver links with
     one-way delays 27..67 ms (link RTTs 60..140 ms incl. the 3 ms of
     sender-side hops). *)
  let sender = Netsim.Topology.add_node topo in
  let r1 = Netsim.Topology.add_node topo in
  let hub = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:100e6 ~delay_s:0.001 sender r1);
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:1e6 ~delay_s:0.002 r1 hub);
  let rng = Netsim.Engine.rng sc.Scenario.engine in
  let rx_nodes =
    List.init n (fun _ ->
        let rx = Netsim.Topology.add_node topo in
        let delay = 0.027 +. Stats.Rng.float rng 0.04 in
        ignore (Netsim.Topology.connect topo ~bandwidth_bps:100e6 ~delay_s:delay hub rx);
        rx)
  in
  let session =
    Session.build
      (Netsim_env.backend topo ~session:Scenario.tfmcc_flow)
      ~session:Scenario.tfmcc_flow ~sender ~receivers:rx_nodes ()
  in
  let samples = ref [] in
  Scenario.sample_every sc ~dt:2. ~t_end (fun t ->
      samples := (t, [ float_of_int (Session.receivers_with_rtt session) ]) :: !samples);
  Session.start session ~at:0.;
  Scenario.run_until sc t_end;
  [
    Series.make
      ~title:
        (Printf.sprintf
           "Fig. 12: receivers with a valid RTT measurement over time (n=%d, \
            shared 1 Mbit/s bottleneck, initial RTT 500 ms)"
           n)
      ~xlabel:"time (s)" ~ylabels:[ "receivers with valid RTT" ]
      ~notes:
        [
          "paper: fast initial growth (~feedback count per round), tailing \
           off to ~1 new measurement per round; 700/1000 after 200 s";
        ]
      (List.rev !samples);
  ]
