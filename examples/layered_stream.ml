(* Layered streaming: the paper's closing future-work idea in action.

   Where the single-rate examples pin every viewer to the slowest
   member's rate, this one streams six multiplicative layers
   (128 kbit/s .. 4 Mbit/s cumulative) and lets each viewer's
   equation-based controller pick its own layer prefix.  A mid-session
   congestion episode on one viewer's link shows the join-backoff
   dynamics: that viewer sheds layers and climbs back afterwards, without
   anyone else noticing.

   Run with: dune exec examples/layered_stream.exe *)

let () =
  let engine = Netsim.Engine.create ~seed:13 () in
  let topo = Netsim.Topology.create engine in
  let sender = Netsim.Topology.add_node topo in
  let hub = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:100e6 ~delay_s:0.005 sender hub);
  let viewers = [ ("dsl-512k", 0.512e6); ("cable-2M", 2e6); ("fibre-8M", 8e6) ] in
  let nodes =
    List.map
      (fun (name, bw) ->
        let rx = Netsim.Topology.add_node topo in
        ignore (Netsim.Topology.connect topo ~bandwidth_bps:bw ~delay_s:0.02 hub rx);
        (name, rx))
      viewers
  in
  let snd = Layered.Sender.create topo ~session:1 ~node:sender () in
  let receivers =
    List.map
      (fun (name, rx) ->
        let r = Layered.Receiver.create topo ~session:1 ~node:rx in
        Layered.Receiver.join r;
        (name, rx, r))
      nodes
  in
  Layered.Sender.start snd ~at:0.;
  (* At t=60 the cable viewer's link degrades to 0.4 Mbit/s worth of
     cross-loss for 30 s. *)
  let _, cable_node, _ = List.nth receivers 1 in
  ignore
    (Netsim.Engine.at engine ~time:60. (fun () ->
         print_endline "t= 60: congestion hits the cable viewer's link (5% loss)";
         let link = Option.get (Netsim.Topology.link_between topo hub cable_node) in
         Netsim.Link.set_loss link
           (Netsim.Loss_model.bernoulli ~rng:(Netsim.Engine.split_rng engine) ~p:0.05)));
  ignore
    (Netsim.Engine.at engine ~time:90. (fun () ->
         print_endline "t= 90: congestion clears";
         let link = Option.get (Netsim.Topology.link_between topo hub cable_node) in
         Netsim.Link.set_loss link Netsim.Loss_model.none));
  Printf.printf "%5s" "t(s)";
  List.iter (fun (name, _, _) -> Printf.printf " %20s" name) receivers;
  print_newline ();
  for sec = 1 to 150 do
    Netsim.Engine.run ~until:(float_of_int sec) engine;
    if sec mod 10 = 0 then begin
      Printf.printf "%5d" sec;
      List.iter
        (fun (_, _, r) ->
          Printf.printf " %9d layers/%4.0fk" (Layered.Receiver.subscription r)
            (Layered.Receiver.cumulative_rate r *. 8. /. 1000.))
        receivers;
      print_newline ()
    end
  done;
  print_newline ();
  List.iter
    (fun (name, _, r) ->
      Printf.printf "%-10s %6d packets, %2d joins, %2d sheds, p=%.4f\n" name
        (Layered.Receiver.packets_received r)
        (Layered.Receiver.joins r) (Layered.Receiver.drops r)
        (Layered.Receiver.loss_event_rate r))
    receivers
