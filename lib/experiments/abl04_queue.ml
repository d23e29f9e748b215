open Tfmcc_core

let run_one ~seed ~red ~t_end ~n_tcp =
  let sc = Scenario.base ~seed () in
  let topo = sc.Scenario.topo in
  let eng = sc.Scenario.engine in
  let left = Netsim.Topology.add_node topo in
  let right = Netsim.Topology.add_node topo in
  let mk_queue () =
    if red then
      Netsim.Queue_disc.red ~rng:(Netsim.Engine.split_rng eng) ~capacity_pkts:50
    else Netsim.Queue_disc.droptail ~capacity_pkts:50
  in
  ignore
    (Netsim.Topology.connect topo ~queue_ab:(mk_queue ()) ~queue_ba:(mk_queue ())
       ~bandwidth_bps:8e6 ~delay_s:0.02 left right);
  let mk_left () =
    let n = Netsim.Topology.add_node topo in
    ignore (Netsim.Topology.connect topo ~bandwidth_bps:80e6 ~delay_s:0.001 n left);
    n
  in
  let mk_right () =
    let n = Netsim.Topology.add_node topo in
    ignore (Netsim.Topology.connect topo ~bandwidth_bps:80e6 ~delay_s:0.001 right n);
    n
  in
  let sender = mk_left () in
  let rx = mk_right () in
  Netsim.Monitor.watch_node_flow sc.Scenario.monitor rx ~flow:Scenario.tfmcc_flow;
  let session =
    Session.build
      (Netsim_env.backend topo ~session:Scenario.tfmcc_flow)
      ~session:Scenario.tfmcc_flow ~sender ~receivers:[ rx ] ()
  in
  for i = 0 to n_tcp - 1 do
    let src = mk_left () and dst = mk_right () in
    ignore (Scenario.add_tcp sc ~conn:(100 + i) ~flow:(Scenario.tcp_flow i) ~src ~dst ~at:0.)
  done;
  Session.start session ~at:0.;
  Scenario.run_until sc t_end;
  let warmup = t_end /. 3. in
  let tfmcc =
    Scenario.mean_throughput_kbps sc ~flow:Scenario.tfmcc_flow ~t_start:warmup ~t_end
  in
  let tcp =
    List.fold_left
      (fun acc i ->
        acc
        +. Scenario.mean_throughput_kbps sc ~flow:(Scenario.tcp_flow i)
             ~t_start:warmup ~t_end)
      0.
      (List.init n_tcp Fun.id)
    /. float_of_int n_tcp
  in
  let cov =
    Scenario.throughput_series sc ~flow:Scenario.tfmcc_flow ~bin:1. ~t_end
    |> Array.to_list
    |> List.filter (fun (t, _) -> t >= warmup)
    |> List.map snd |> Array.of_list
    |> Stats.Descriptive.coefficient_of_variation
  in
  (tfmcc /. tcp, cov)

let run ~mode ~seed =
  let t_end = Scenario.scale mode ~quick:100. ~full:200. in
  let n_tcp = 15 in
  let dt_ratio, dt_cov = run_one ~seed ~red:false ~t_end ~n_tcp in
  let red_ratio, red_cov = run_one ~seed ~red:true ~t_end ~n_tcp in
  [
    Series.make
      ~title:"Ablation: drop-tail vs RED at the Fig. 9 bottleneck"
      ~xlabel:"queue (0=drop-tail, 1=RED)"
      ~ylabels:[ "TFMCC/TCP ratio"; "TFMCC rate CoV" ]
      ~notes:
        [
          "paper (4): both TCP-fairness and intra-protocol fairness \
           generally improve with RED instead of drop-tail";
        ]
      [ (0., [ dt_ratio; dt_cov ]); (1., [ red_ratio; red_cov ]) ];
  ]
