(* Topology for both runs: sender -- 4 Mbit/s bottleneck -- hub, one clean
   receiver and one 1%-lossy receiver, one competing TCP to the clean
   receiver. *)

type built = {
  b_sc : Scenario.t;
  b_sender : Netsim.Node.t;
  b_rx_clean : Netsim.Node.t;
  b_rx_lossy : Netsim.Node.t;
}

let build ~seed =
  let sc = Scenario.base ~seed () in
  let topo = sc.Scenario.topo in
  let sender = Netsim.Topology.add_node topo in
  let hub = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:4e6 ~delay_s:0.02 sender hub);
  let rx_clean = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:40e6 ~delay_s:0.005 hub rx_clean);
  let rx_lossy = Netsim.Topology.add_node topo in
  ignore
    (Netsim.Topology.connect topo
       ~loss_ab:
         (Netsim.Loss_model.bernoulli
            ~rng:(Netsim.Engine.split_rng sc.Scenario.engine)
            ~p:0.01)
       ~bandwidth_bps:40e6 ~delay_s:0.005 hub rx_lossy);
  (* Competing TCP through the same bottleneck. *)
  let tcp_src = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:40e6 ~delay_s:0.001 tcp_src sender);
  let tcp_dst = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:40e6 ~delay_s:0.001 hub tcp_dst);
  ignore
    (Scenario.add_tcp sc ~conn:1 ~flow:(Scenario.tcp_flow 0) ~src:tcp_src
       ~dst:tcp_dst ~at:0.);
  Netsim.Monitor.watch_node_flow sc.Scenario.monitor rx_clean ~flow:Scenario.tfmcc_flow;
  { b_sc = sc; b_sender = sender; b_rx_clean = rx_clean; b_rx_lossy = rx_lossy }

let series_stats sc ~t_end ~warmup =
  let xs =
    Scenario.throughput_series sc ~flow:Scenario.tfmcc_flow ~bin:1. ~t_end
    |> Array.to_list
    |> List.filter (fun (t, _) -> t >= warmup)
    |> List.map snd |> Array.of_list
  in
  (Stats.Descriptive.mean xs, Stats.Descriptive.coefficient_of_variation xs)

let run_tfmcc ~seed ~t_end =
  let b = build ~seed in
  let session =
    Tfmcc_core.Session.build
      (Netsim_env.backend b.b_sc.Scenario.topo ~session:Scenario.tfmcc_flow)
      ~session:Scenario.tfmcc_flow ~sender:b.b_sender
      ~receivers:[ b.b_rx_clean; b.b_rx_lossy ]
      ()
  in
  Tfmcc_core.Session.start session ~at:0.;
  Scenario.run_until b.b_sc t_end;
  ( Scenario.throughput_series b.b_sc ~flow:Scenario.tfmcc_flow ~bin:1. ~t_end,
    series_stats b.b_sc ~t_end ~warmup:(t_end /. 4.),
    Scenario.mean_throughput_kbps b.b_sc ~flow:(Scenario.tcp_flow 0)
      ~t_start:(t_end /. 4.) ~t_end )

let run_pgmcc ~seed ~t_end =
  let b = build ~seed in
  let snd =
    Pgmcc.Sender.create b.b_sc.Scenario.topo ~session:Scenario.tfmcc_flow
      ~node:b.b_sender ()
  in
  let r1 =
    Pgmcc.Receiver.create b.b_sc.Scenario.topo ~session:Scenario.tfmcc_flow
      ~node:b.b_rx_clean ~sender:b.b_sender
  in
  let r2 =
    Pgmcc.Receiver.create b.b_sc.Scenario.topo ~session:Scenario.tfmcc_flow
      ~node:b.b_rx_lossy ~sender:b.b_sender
  in
  Pgmcc.Receiver.join r1;
  Pgmcc.Receiver.join r2;
  Pgmcc.Sender.start snd ~at:0.;
  Scenario.run_until b.b_sc t_end;
  ( Scenario.throughput_series b.b_sc ~flow:Scenario.tfmcc_flow ~bin:1. ~t_end,
    series_stats b.b_sc ~t_end ~warmup:(t_end /. 4.),
    Scenario.mean_throughput_kbps b.b_sc ~flow:(Scenario.tcp_flow 0)
      ~t_start:(t_end /. 4.) ~t_end,
    Pgmcc.Sender.acker snd = Some (Netsim.Node.id b.b_rx_lossy) )

let run ~mode ~seed =
  let t_end = Scenario.scale mode ~quick:120. ~full:300. in
  let tf_series, (tf_mean, tf_cov), tf_tcp = run_tfmcc ~seed ~t_end in
  let pg_series, (pg_mean, pg_cov), pg_tcp, acker_ok = run_pgmcc ~seed ~t_end in
  let rows =
    Array.to_list
      (Array.mapi (fun i (t, v) -> (t, [ v; snd pg_series.(i) ])) tf_series)
  in
  [
    Series.make
      ~title:
        "Comparison (paper §5): TFMCC vs PGMCC on a shared 4 Mbit/s \
         bottleneck with a 1%-lossy representative (kbit/s, measured at \
         the clean receiver)"
      ~xlabel:"time (s)" ~ylabels:[ "TFMCC"; "PGMCC" ]
      ~notes:
        [
          Printf.sprintf
            "means (kbit/s): TFMCC %.0f (CoV %.2f) vs PGMCC %.0f (CoV %.2f) \
             — paper: similar averages, PGMCC visibly sawtooth-like"
            tf_mean tf_cov pg_mean pg_cov;
          Printf.sprintf
            "competing TCP got %.0f kbit/s alongside TFMCC and %.0f \
             alongside PGMCC" tf_tcp pg_tcp;
          Printf.sprintf "PGMCC elected the lossy receiver as acker: %b" acker_ok;
        ]
      rows;
  ]
