let run ~mode ~seed =
  let t_end = Scenario.scale mode ~quick:120. ~full:300. in
  let bottlenecks = [| 0.25e6; 0.5e6; 1e6; 2e6; 4e6 |] in
  let sc = Scenario.base ~seed () in
  let topo = sc.Scenario.topo in
  let sender = Netsim.Topology.add_node topo in
  let hub = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:100e6 ~delay_s:0.005 sender hub);
  let rx_nodes =
    Array.map
      (fun bw ->
        let rx = Netsim.Topology.add_node topo in
        ignore (Netsim.Topology.connect topo ~bandwidth_bps:bw ~delay_s:0.02 hub rx);
        rx)
      bottlenecks
  in
  (* 6 layers, cumulative 16..512 kB/s = 128 kbit .. 4 Mbit. *)
  let snd = Layered.Sender.create topo ~session:1 ~node:sender () in
  let receivers =
    Array.map
      (fun rx ->
        let r = Layered.Receiver.create topo ~session:1 ~node:rx in
        Layered.Receiver.join r;
        r)
      rx_nodes
  in
  Layered.Sender.start snd ~at:0.;
  (* Mean subscription over the steady second half. *)
  let sub_sums = Array.make (Array.length receivers) 0. in
  let samples = ref 0 in
  Scenario.sample_every sc ~dt:1. ~t_end (fun t ->
      if t >= t_end /. 2. then begin
        incr samples;
        Array.iteri
          (fun i r ->
            sub_sums.(i) <- sub_sums.(i) +. float_of_int (Layered.Receiver.subscription r))
          receivers
      end);
  Scenario.run_until sc t_end;
  let rows =
    Array.to_list
      (Array.mapi
         (fun i bw ->
           let r = receivers.(i) in
           let mean_sub = sub_sums.(i) /. float_of_int !samples in
           ( bw /. 1e6,
             [
               mean_sub;
               Layered.Receiver.cumulative_rate r *. 8. /. 1000.;
               float_of_int (Layered.Receiver.joins r);
               float_of_int (Layered.Receiver.drops r);
             ] ))
         bottlenecks)
  in
  [
    Series.make
      ~title:
        "Extension (6.1): equation-driven layered multicast — per-receiver \
         subscription vs its bottleneck (layers at 128k..4Mbit cumulative)"
      ~xlabel:"bottleneck (Mbit/s)"
      ~ylabels:
        [ "mean layers subscribed"; "final cum. rate (kbit/s)"; "joins"; "drops" ]
      ~notes:
        [
          "each receiver should hold the largest layer prefix its own \
           bottleneck sustains — heterogeneity the single-rate protocol \
           cannot serve (its Fig. 15 pins everyone at 200 kbit/s)";
        ]
      rows;
  ]
