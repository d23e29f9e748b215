open Tfmcc_core

type cross = No_cross | Cbr | On_off | Poisson

let label = function
  | No_cross -> "none"
  | Cbr -> "CBR 1Mb"
  | On_off -> "on-off 1Mb avg"
  | Poisson -> "Poisson 1Mb"

let run_one ~seed ~cross ~t_end =
  let sc = Scenario.base ~seed () in
  let topo = sc.Scenario.topo in
  let sender = Netsim.Topology.add_node topo in
  let right = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:2e6 ~delay_s:0.02 sender right);
  let rx = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:20e6 ~delay_s:0.005 right rx);
  Netsim.Monitor.watch_node_flow sc.Scenario.monitor rx ~flow:Scenario.tfmcc_flow;
  (* Cross traffic shares the 2 Mbit/s bottleneck. *)
  (match cross with
  | No_cross -> ()
  | Cbr | On_off | Poisson ->
      let csrc = Netsim.Topology.add_node topo in
      ignore (Netsim.Topology.connect topo ~bandwidth_bps:20e6 ~delay_s:0.001 csrc sender);
      let cdst = Netsim.Topology.add_node topo in
      ignore (Netsim.Topology.connect topo ~bandwidth_bps:20e6 ~delay_s:0.001 right cdst);
      let g =
        match cross with
        | Cbr -> Netsim.Traffic.cbr topo ~flow:99 ~src:csrc ~dst:cdst ~rate_bps:1e6 ()
        | On_off ->
            Netsim.Traffic.on_off topo ~flow:99 ~src:csrc ~dst:cdst ~rate_bps:2e6 ()
        | Poisson ->
            Netsim.Traffic.poisson topo ~flow:99 ~src:csrc ~dst:cdst ~rate_bps:1e6 ()
        | No_cross -> assert false
      in
      Netsim.Traffic.start g ~at:0.);
  let session =
    Session.build
      (Netsim_env.backend topo ~session:Scenario.tfmcc_flow)
      ~session:Scenario.tfmcc_flow ~sender ~receivers:[ rx ] ()
  in
  Session.start session ~at:0.;
  Scenario.run_until sc t_end;
  let warmup = t_end /. 3. in
  let mean =
    Scenario.mean_throughput_kbps sc ~flow:Scenario.tfmcc_flow ~t_start:warmup ~t_end
  in
  let cov =
    Scenario.throughput_series sc ~flow:Scenario.tfmcc_flow ~bin:1. ~t_end
    |> Array.to_list
    |> List.filter (fun (t, _) -> t >= warmup)
    |> List.map snd |> Array.of_list
    |> Stats.Descriptive.coefficient_of_variation
  in
  (mean, cov)

let run ~mode ~seed =
  let t_end = Scenario.scale mode ~quick:90. ~full:200. in
  let cases = [ No_cross; Cbr; On_off; Poisson ] in
  let rows =
    List.mapi
      (fun i cross ->
        let mean, cov = run_one ~seed ~cross ~t_end in
        (float_of_int i, [ mean; cov ]))
      cases
  in
  [
    Series.make
      ~title:
        "Ablation: TFMCC vs non-TCP cross traffic on a 2 Mbit/s bottleneck \
         (cross load ~1 Mbit/s where present)"
      ~xlabel:"cross traffic (0=none 1=CBR 2=on-off 3=Poisson)"
      ~ylabels:[ "TFMCC (kbit/s)"; "rate CoV" ]
      ~notes:
        [
          String.concat "; " (List.map label cases);
          "TFMCC should take ~2 Mbit/s alone and ~the leftover ~1 Mbit/s \
           against each unresponsive flow, with the on-off case costing \
           the most smoothness";
        ]
      rows;
  ]
