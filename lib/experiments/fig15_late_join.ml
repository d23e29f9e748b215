open Tfmcc_core

let setup ~seed ~with_tail_tcp ~join_at ~leave_at =
  let d =
    Scenario.dumbbell ~seed ~bottleneck_bps:8e6 ~delay_s:0.02 ~n_tfmcc_rx:8
      ~n_tcp:7 ()
  in
  let sc = d.Scenario.sc in
  let topo = sc.Scenario.topo in
  let eng = sc.Scenario.engine in
  (* The slow tail: right router -- 200 kbit/s -- slow node. *)
  let slow = Netsim.Topology.add_node topo in
  ignore
    (Netsim.Topology.connect topo ~bandwidth_bps:200e3 ~delay_s:0.005
       d.Scenario.right_router slow);
  (* Start (and join) the permanent receivers first: the late receiver
     must not be swept up by Session.start's join. *)
  Session.start d.Scenario.session ~at:0.;
  let late =
    Session.add_receiver
      (Netsim_env.backend topo ~session:Scenario.tfmcc_flow)
      d.Scenario.session slow ~join_now:false
  in
  ignore (Netsim.Engine.at eng ~time:join_at (fun () -> Receiver.join late));
  ignore (Netsim.Engine.at eng ~time:leave_at (fun () -> Receiver.leave late ()));
  let tail_tcp =
    if with_tail_tcp then begin
      let src = Netsim.Topology.add_node topo in
      ignore
        (Netsim.Topology.connect topo ~bandwidth_bps:80e6 ~delay_s:0.001 src
           d.Scenario.left_router);
      Some (Scenario.add_tcp sc ~conn:9000 ~flow:(Scenario.tcp_flow 90) ~src ~dst:slow ~at:0.)
    end
    else None
  in
  (d, late, tail_tcp)

let series_of ~seed ~with_tail_tcp ~mode =
  let t_end = Scenario.scale mode ~quick:140. ~full:140. in
  let join_at = 50. and leave_at = 100. in
  let d, _late, _tail = setup ~seed ~with_tail_tcp ~join_at ~leave_at in
  let sc = d.Scenario.sc in
  (* Track the sending rate through the whole run (receiver-side
     throughput at a fast receiver mirrors it). *)
  Scenario.run_until sc t_end;
  let bin = 1. in
  (* TFMCC measured at one fast receiver: total across the 8 receivers
     divided by 8 would hide the join; a single fast receiver shows the
     rate directly. *)
  let tf =
    Scenario.throughput_series sc ~flow:Scenario.tfmcc_flow ~bin ~t_end
    |> Array.map (fun (t, v) -> (t, v /. 8.))
    (* the monitor sums the 8 permanent receivers *)
  in
  let tcp_series =
    Array.init 7 (fun k ->
        Scenario.throughput_series sc ~flow:(Scenario.tcp_flow k) ~bin ~t_end)
  in
  let tcp_sum =
    Array.init (Array.length tf) (fun i ->
        let t = fst tf.(i) in
        let acc = ref 0. in
        for k = 0 to 6 do
          acc := !acc +. snd tcp_series.(k).(i)
        done;
        (t, !acc))
  in
  let tail_series =
    if with_tail_tcp then
      Some (Scenario.throughput_series sc ~flow:(Scenario.tcp_flow 90) ~bin ~t_end)
    else None
  in
  let rows =
    Array.to_list
      (Array.mapi
         (fun i (t, v) ->
           let base = [ snd tcp_sum.(i); v ] in
           match tail_series with
           | Some ts -> (t, base @ [ snd ts.(i) ])
           | None -> (t, base))
         tf)
  in
  (rows, d)

let run ~mode ~seed =
  let rows, _ = series_of ~seed ~with_tail_tcp:false ~mode in
  [
    Series.make
      ~title:
        "Fig. 15: late join of a 200 kbit/s receiver (t=50..100 s); kbit/s"
      ~xlabel:"time (s)" ~ylabels:[ "aggregated TCP"; "TFMCC" ]
      ~notes:
        [
          "paper: TFMCC drops to ~200 kbit/s within a very few seconds of \
           the join and recovers to the 1 Mbit/s fair rate after the leave";
        ]
      rows;
  ]

let run_with_tail_tcp ~mode ~seed =
  let rows, _ = series_of ~seed ~with_tail_tcp:true ~mode in
  [
    Series.make
      ~title:
        "Fig. 16: late join with an additional TCP flow on the 200 kbit/s \
         link; kbit/s"
      ~xlabel:"time (s)"
      ~ylabels:[ "aggregated TCP"; "TFMCC"; "TCP on 200kbit/s link" ]
      ~notes:
        [
          "paper: the tail TCP times out when the link floods at the join, \
           then recovers and shares the tail roughly fairly with TFMCC";
        ]
      rows;
  ]
