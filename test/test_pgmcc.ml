(* Tests for the PGMCC comparison protocol (paper §5). *)

let star ~losses =
  let e = Netsim.Engine.create ~seed:41 ~obs:(Obs.Sink.create ()) () in
  let topo = Netsim.Topology.create e in
  let sender = Netsim.Topology.add_node topo in
  let hub = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:50e6 ~delay_s:0.01 sender hub);
  let rxs =
    Array.map
      (fun loss ->
        let rx = Netsim.Topology.add_node topo in
        let loss_ab =
          if loss > 0. then
            Some (Netsim.Loss_model.bernoulli ~rng:(Netsim.Engine.split_rng e) ~p:loss)
          else None
        in
        ignore
          (Netsim.Topology.connect topo ?loss_ab ~bandwidth_bps:20e6 ~delay_s:0.01 hub rx);
        rx)
      losses
  in
  (e, topo, sender, rxs, hub)

let session e topo sender rxs =
  let snd = Pgmcc.Sender.create topo ~session:9 ~node:sender () in
  let receivers =
    Array.map
      (fun rx ->
        let r = Pgmcc.Receiver.create topo ~session:9 ~node:rx ~sender in
        Pgmcc.Receiver.join r;
        r)
      rxs
  in
  ignore e;
  (snd, receivers)

(* A sender counter from the registry: [pgmcc_<name>_total]. *)
let sender_count e name =
  Obs.Metrics.sum_counters (Netsim.Engine.obs e).Obs.Sink.metrics
    ("pgmcc_" ^ name ^ "_total")

(* Counts the packets delivered at [node] that satisfy [pred]. *)
let count_at node pred =
  let n = ref 0 in
  Netsim.Node.attach node (fun p -> if pred p.Netsim.Packet.payload then incr n);
  n

let test_elects_acker () =
  let e, topo, sender, rxs, _hub = star ~losses:[| 0.0; 0.04; 0.005 |] in
  let snd, _rcvs = session e topo sender rxs in
  Pgmcc.Sender.start snd ~at:0.;
  Netsim.Engine.run ~until:60. e;
  match Pgmcc.Sender.acker snd with
  | Some id -> Alcotest.(check int) "acker = worst receiver" (Netsim.Node.id rxs.(1)) id
  | None -> Alcotest.fail "no acker elected"

let test_data_flows_and_sawtooth () =
  let e, topo, sender, rxs, _hub = star ~losses:[| 0.0; 0.02 |] in
  let snd, _rcvs = session e topo sender rxs in
  let data = count_at rxs.(0) (function Pgmcc.Wire.Data _ -> true | _ -> false) in
  let acker = Netsim.Node.id rxs.(1) in
  let acks =
    count_at sender (function
      | Pgmcc.Wire.Ack { rx_id; _ } -> rx_id = acker
      | _ -> false)
  in
  Pgmcc.Sender.start snd ~at:0.;
  Netsim.Engine.run ~until:60. e;
  Alcotest.(check bool) "receiver got data" true (!data > 500);
  Alcotest.(check bool) "window halvings occurred" true (sender_count e "halvings" > 5);
  Alcotest.(check bool) "acker acked" true (!acks > 100)

let test_window_bounded_by_loss () =
  (* With a 5% acker the window should stay small (TCP-equation scale:
     W ~ 1.22/sqrt(0.05) ~ 5.5). *)
  let e, topo, sender, rxs, _hub = star ~losses:[| 0.05 |] in
  let snd, _ = session e topo sender rxs in
  Pgmcc.Sender.start snd ~at:0.;
  let samples = ref [] in
  let rec poll t =
    if t < 120. then
      ignore
        (Netsim.Engine.at e ~time:t (fun () ->
             samples := Pgmcc.Sender.window snd :: !samples;
             poll (t +. 1.)))
  in
  poll 30.;
  Netsim.Engine.run ~until:120. e;
  let mean_w = Stats.Descriptive.mean (Array.of_list !samples) in
  Alcotest.(check bool)
    (Printf.sprintf "mean window ~ TCP scale (got %.1f)" mean_w)
    true
    (mean_w > 1.5 && mean_w < 15.)

let test_loss_estimate_tracks () =
  let e, topo, sender, rxs, _hub = star ~losses:[| 0.03 |] in
  let snd, rcvs = session e topo sender rxs in
  Pgmcc.Sender.start snd ~at:0.;
  Netsim.Engine.run ~until:120. e;
  let est = Pgmcc.Receiver.loss_estimate rcvs.(0) in
  Alcotest.(check bool)
    (Printf.sprintf "smoothed loss near 3%% (got %.3f)" est)
    true
    (est > 0.005 && est < 0.08)

let test_no_deadlock_on_total_loss () =
  (* If the acker's path dies completely, the idle timer must keep the
     session alive (probes), not deadlock. *)
  let e, topo, sender, rxs, hub = star ~losses:[| 0.0 |] in
  let snd, _ = session e topo sender rxs in
  Pgmcc.Sender.start snd ~at:0.;
  Netsim.Engine.run ~until:20. e;
  let link = Option.get (Netsim.Topology.link_between topo hub rxs.(0)) in
  Netsim.Link.set_loss link
    (Netsim.Loss_model.bernoulli ~rng:(Netsim.Engine.split_rng e) ~p:1.0);
  let sent_at_cut = sender_count e "packets_sent" in
  Netsim.Engine.run ~until:60. e;
  let sent_after = sender_count e "packets_sent" in
  Alcotest.(check bool) "probes continue" true (sent_after > sent_at_cut);
  Alcotest.(check bool) "but rate collapsed" true (sent_after - sent_at_cut < 400)

let () =
  Alcotest.run "pgmcc"
    [
      ( "protocol",
        [
          Alcotest.test_case "elects worst acker" `Quick test_elects_acker;
          Alcotest.test_case "data flows, sawtooth" `Quick test_data_flows_and_sawtooth;
          Alcotest.test_case "window ~ TCP scale" `Slow test_window_bounded_by_loss;
          Alcotest.test_case "loss estimate" `Slow test_loss_estimate_tracks;
          Alcotest.test_case "no deadlock on dead path" `Quick test_no_deadlock_on_total_loss;
        ] );
    ]
