(* Tests for the TEAR window-emulation protocol (paper §5). *)

let path ~loss =
  let e = Netsim.Engine.create ~seed:53 ~obs:(Obs.Sink.create ()) () in
  let topo = Netsim.Topology.create e in
  let a = Netsim.Topology.add_node topo in
  let b = Netsim.Topology.add_node topo in
  let loss_ab =
    if loss > 0. then
      Some (Netsim.Loss_model.bernoulli ~rng:(Netsim.Engine.split_rng e) ~p:loss)
    else None
  in
  ignore (Netsim.Topology.connect topo ?loss_ab ~bandwidth_bps:20e6 ~delay_s:0.015 a b);
  (e, topo, a, b)

(* Counts the TEAR data packets delivered at [node]. *)
let data_at node =
  let n = ref 0 in
  Netsim.Node.attach node (fun p ->
      match p.Netsim.Packet.payload with Tear.Wire.Data _ -> incr n | _ -> ());
  n

let session topo a b =
  let snd = Tear.Sender.create topo ~conn:1 ~flow:1 ~src:a ~dst:b () in
  let rcv = Tear.Receiver.create topo ~conn:1 ~node:b ~sender:a in
  (snd, rcv)

let test_transfer_and_feedback () =
  let e, topo, a, b = path ~loss:0. in
  let snd, _rcv = session topo a b in
  let data = data_at b in
  Tear.Sender.start snd ~at:0.;
  Netsim.Engine.run ~until:30. e;
  Alcotest.(check bool) "data flowed" true (!data > 200);
  Alcotest.(check bool) "feedback flowed" true
    (Obs.Metrics.sum_counters (Netsim.Engine.obs e).Obs.Sink.metrics
       "tear_sender_feedback_total"
    > 20);
  match Tear.Sender.rtt snd with
  | Some rtt -> Alcotest.(check bool) "plausible RTT" true (rtt > 0.02 && rtt < 0.5)
  | None -> Alcotest.fail "no RTT measured"

let test_window_grows_without_loss () =
  let e, topo, a, b = path ~loss:0. in
  let snd, rcv = session topo a b in
  Tear.Sender.start snd ~at:0.;
  (* Before the ramp saturates the 20 Mbit/s link there is no loss and
     the shadow window must open monotonically without closing an
     epoch. *)
  Netsim.Engine.run ~until:3. e;
  Alcotest.(check bool) "window opened" true (Tear.Receiver.window rcv > 10.);
  Alcotest.(check int) "no epochs before saturation" 0
    (Tear.Receiver.epochs_completed rcv);
  (* Left alone it saturates the link and starts real (self-induced)
     loss epochs. *)
  Netsim.Engine.run ~until:30. e;
  Alcotest.(check bool) "self-induced epochs at the bottleneck" true
    (Tear.Receiver.epochs_completed rcv > 0)

let test_loss_creates_epochs_and_bounds_rate () =
  let e, topo, a, b = path ~loss:0.02 in
  let snd, rcv = session topo a b in
  Tear.Sender.start snd ~at:0.;
  Netsim.Engine.run ~until:120. e;
  Alcotest.(check bool) "epochs completed" true (Tear.Receiver.epochs_completed rcv > 20);
  (* Mathis scale at p=0.02, rtt~0.035: W ~ 8.6 -> rate ~ 8.6*1000/0.035
     ~ 246 kB/s.  Accept a factor of 3. *)
  let rate = Tear.Sender.rate_bytes_per_s snd in
  Alcotest.(check bool)
    (Printf.sprintf "rate in TCP-equivalent range (got %.0f B/s)" rate)
    true
    (rate > 80_000. && rate < 750_000.)

let test_rate_responds_to_loss_change () =
  let e, topo, a, b = path ~loss:0.005 in
  let snd, rcv = session topo a b in
  ignore rcv;
  Tear.Sender.start snd ~at:0.;
  Netsim.Engine.run ~until:60. e;
  let before = Tear.Sender.rate_bytes_per_s snd in
  (* Loss increases 8x: the advertised rate must come down. *)
  let link = Option.get (Netsim.Topology.link_between topo a b) in
  Netsim.Link.set_loss link
    (Netsim.Loss_model.bernoulli ~rng:(Netsim.Engine.split_rng e) ~p:0.04);
  Netsim.Engine.run ~until:150. e;
  let after = Tear.Sender.rate_bytes_per_s snd in
  Alcotest.(check bool)
    (Printf.sprintf "rate dropped (%.0f -> %.0f)" before after)
    true
    (after < 0.75 *. before)

let test_smoother_than_instantaneous_window () =
  (* The advertised rate must vary much less than the raw shadow window:
     sample both over time under steady loss. *)
  let e, topo, a, b = path ~loss:0.02 in
  let snd, rcv = session topo a b in
  Tear.Sender.start snd ~at:0.;
  let windows = ref [] and rates = ref [] in
  let rec poll t =
    if t < 120. then
      ignore
        (Netsim.Engine.at e ~time:t (fun () ->
             windows := Tear.Receiver.window rcv :: !windows;
             rates := Tear.Receiver.rate_bytes_per_s rcv :: !rates;
             poll (t +. 0.5)))
  in
  poll 30.;
  Netsim.Engine.run ~until:120. e;
  let cov l = Stats.Descriptive.coefficient_of_variation (Array.of_list l) in
  Alcotest.(check bool)
    (Printf.sprintf "rate smoother than window (%.2f < %.2f)" (cov !rates) (cov !windows))
    true
    (cov !rates < cov !windows)

let () =
  Alcotest.run "tear"
    [
      ( "protocol",
        [
          Alcotest.test_case "transfer + feedback" `Quick test_transfer_and_feedback;
          Alcotest.test_case "window grows cleanly" `Quick test_window_grows_without_loss;
          Alcotest.test_case "loss epochs bound rate" `Slow test_loss_creates_epochs_and_bounds_rate;
          Alcotest.test_case "responds to loss change" `Slow test_rate_responds_to_loss_change;
          Alcotest.test_case "rate smoother than window" `Slow test_smoother_than_instantaneous_window;
        ] );
    ]
