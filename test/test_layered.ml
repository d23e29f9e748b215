(* Tests for the receiver-driven layered-multicast extension (§6.1). *)

let star ~bottlenecks =
  let e = Netsim.Engine.create ~seed:83 () in
  let topo = Netsim.Topology.create e in
  let sender = Netsim.Topology.add_node topo in
  let hub = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:100e6 ~delay_s:0.005 sender hub);
  let rxs =
    Array.map
      (fun bw ->
        let rx = Netsim.Topology.add_node topo in
        ignore (Netsim.Topology.connect topo ~bandwidth_bps:bw ~delay_s:0.02 hub rx);
        rx)
      bottlenecks
  in
  (e, topo, sender, rxs)

(* The cumulative rates every data packet carries for its layer. *)
let test_sender_layer_rates () =
  let e, topo, sender, rxs = star ~bottlenecks:[| 100e6 |] in
  let snd = Layered.Sender.create topo ~session:1 ~node:sender () in
  for l = 0 to 5 do
    Netsim.Topology.join topo ~group:(Layered.Wire.group_of ~session:1 ~layer:l) rxs.(0)
  done;
  let cum = Array.make 8 nan in
  Netsim.Node.attach rxs.(0) (fun p ->
      match p.Netsim.Packet.payload with
      | Layered.Wire.Data { layer; cumulative_rate; _ } -> cum.(layer) <- cumulative_rate
      | _ -> ());
  Layered.Sender.start snd ~at:0.;
  Netsim.Engine.run ~until:1. e;
  Alcotest.(check int) "layers" 6
    (Array.fold_left (fun n c -> if Float.is_nan c then n else n + 1) 0 cum);
  Alcotest.(check (float 1e-9)) "cum 0" 16_000. cum.(0);
  Alcotest.(check (float 1e-9)) "cum 3" 128_000. cum.(3)

let test_layer_pacing_rates () =
  (* Subscribing to a prefix yields approximately its cumulative rate. *)
  let e, topo, sender, rxs = star ~bottlenecks:[| 100e6 |] in
  let snd = Layered.Sender.create topo ~session:1 ~node:sender () in
  (* Static subscription: join the groups directly, no controller. *)
  for l = 0 to 1 do
    Netsim.Topology.join topo ~group:(Layered.Wire.group_of ~session:1 ~layer:l) rxs.(0)
  done;
  let mon = Netsim.Monitor.create e in
  Netsim.Monitor.watch_node mon rxs.(0);
  Layered.Sender.start snd ~at:0.;
  Netsim.Engine.run ~until:20. e;
  let bytes_per_s =
    List.fold_left
      (fun acc l ->
        acc +. (Netsim.Monitor.throughput_bps mon ~flow:(64 + l) ~t_start:2. ~t_end:20. /. 8.))
      0. [ 0; 1; 2 ]
  in
  (* layers 0+1 = cumulative 32 kB/s; layer 2 not subscribed *)
  Alcotest.(check (float 3200.)) "prefix rate" 32_000. bytes_per_s

let test_receiver_climbs_to_bottleneck () =
  let e, topo, sender, rxs = star ~bottlenecks:[| 1e6 |] in
  let snd = Layered.Sender.create topo ~session:1 ~node:sender () in
  let r = Layered.Receiver.create topo ~session:1 ~node:rxs.(0) in
  Layered.Receiver.join r;
  Layered.Sender.start snd ~at:0.;
  Netsim.Engine.run ~until:120. e;
  (* 1 Mbit/s = 125 kB/s: sustainable cumulative prefix is 64 kB/s
     (layer 3 of 16/32/64/128/256/512), possibly oscillating to 128. *)
  let sub = Layered.Receiver.subscription r in
  Alcotest.(check bool)
    (Printf.sprintf "subscription near capacity (got %d layers)" sub)
    true
    (sub >= 3 && sub <= 4);
  Alcotest.(check bool) "saw loss at the bottleneck" true
    (Layered.Receiver.loss_event_rate r > 0.)

let test_heterogeneous_receivers_differ () =
  let e, topo, sender, rxs = star ~bottlenecks:[| 0.25e6; 4e6 |] in
  let snd = Layered.Sender.create topo ~session:1 ~node:sender () in
  let slow = Layered.Receiver.create topo ~session:1 ~node:rxs.(0) in
  let fast = Layered.Receiver.create topo ~session:1 ~node:rxs.(1) in
  Layered.Receiver.join slow;
  Layered.Receiver.join fast;
  Layered.Sender.start snd ~at:0.;
  Netsim.Engine.run ~until:120. e;
  Alcotest.(check bool)
    (Printf.sprintf "fast (%d) holds more layers than slow (%d)"
       (Layered.Receiver.subscription fast)
       (Layered.Receiver.subscription slow))
    true
    (Layered.Receiver.subscription fast > Layered.Receiver.subscription slow)

let test_join_backoff_limits_thrash () =
  let e, topo, sender, rxs = star ~bottlenecks:[| 0.5e6 |] in
  let snd = Layered.Sender.create topo ~session:1 ~node:sender () in
  let r = Layered.Receiver.create topo ~session:1 ~node:rxs.(0) in
  Layered.Receiver.join r;
  Layered.Sender.start snd ~at:0.;
  Netsim.Engine.run ~until:200. e;
  (* Exponential per-layer backoff must keep churn far below one
     join/leave per evaluation (evaluations run every 0.4 s). *)
  Alcotest.(check bool)
    (Printf.sprintf "bounded churn (%d joins, %d drops in 200s)"
       (Layered.Receiver.joins r) (Layered.Receiver.drops r))
    true
    (Layered.Receiver.joins r < 40 && Layered.Receiver.drops r < 40)

let () =
  Alcotest.run "layered"
    [
      ( "layered",
        [
          Alcotest.test_case "sender layer rates" `Quick test_sender_layer_rates;
          Alcotest.test_case "prefix pacing" `Quick test_layer_pacing_rates;
          Alcotest.test_case "climbs to bottleneck" `Slow test_receiver_climbs_to_bottleneck;
          Alcotest.test_case "heterogeneous receivers" `Slow test_heterogeneous_receivers_differ;
          Alcotest.test_case "join backoff bounds churn" `Slow test_join_backoff_limits_thrash;
        ] );
    ]
