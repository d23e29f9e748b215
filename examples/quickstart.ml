(* Quickstart: the smallest complete TFMCC session.

   One sender multicasts to three receivers behind links of different
   capacity; TFMCC finds the slowest receiver's fair rate and adapts when
   that receiver leaves.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. A simulation engine and a topology. *)
  let engine = Netsim.Engine.create ~seed:7 () in
  let topo = Netsim.Topology.create engine in

  (* 2. Star topology: sender -- hub -- three receivers at 4, 2 and
     0.5 Mbit/s. *)
  let sender = Netsim.Topology.add_node topo in
  let hub = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:100e6 ~delay_s:0.005 sender hub);
  let mk_receiver bandwidth_bps =
    let rx = Netsim.Topology.add_node topo in
    ignore (Netsim.Topology.connect topo ~bandwidth_bps ~delay_s:0.02 hub rx);
    rx
  in
  let rx_fast = mk_receiver 4e6 in
  let rx_mid = mk_receiver 2e6 in
  let rx_slow = mk_receiver 0.5e6 in

  (* 3. A TFMCC session: sender plus receivers, all with default
     (paper) parameters. *)
  let session =
    Tfmcc_core.Session.build (Netsim_env.backend topo ~session:1) ~session:1
      ~sender ~receivers:[ rx_fast; rx_mid; rx_slow ] ()
  in
  Tfmcc_core.Session.start session ~at:0.;

  (* 4. After 60 s the slow receiver leaves; TFMCC speeds up to the next
     bottleneck. *)
  let slow = Tfmcc_core.Session.receiver session ~node_id:(Netsim.Node.id rx_slow) in
  ignore
    (Netsim.Engine.at engine ~time:60. (fun () ->
         print_endline "t=60: slow receiver leaves";
         Tfmcc_core.Receiver.leave slow ()));

  (* 5. Run, printing the sender's rate once per second. *)
  let snd = Tfmcc_core.Session.sender session in
  Printf.printf "%5s %12s %8s %s\n" "t(s)" "rate(kbit/s)" "CLR" "slowstart";
  for sec = 1 to 120 do
    Netsim.Engine.run ~until:(float_of_int sec) engine;
    if sec mod 5 = 0 then
      Printf.printf "%5d %12.0f %8s %b\n" sec
        (Tfmcc_core.Sender.rate_bytes_per_s snd *. 8. /. 1000.)
        (match Tfmcc_core.Sender.clr snd with
        | Some id -> Printf.sprintf "node %d" id
        | None -> "-")
        (Tfmcc_core.Sender.in_slowstart snd)
  done;
  Printf.printf "\nreceiver summary:\n";
  List.iter
    (fun r ->
      Printf.printf
        "  node %d: %6d packets, loss event rate %.4f, RTT %.0f ms%s\n"
        (Tfmcc_core.Receiver.node_id r)
        (Tfmcc_core.Receiver.packets_received r)
        (Tfmcc_core.Receiver.loss_event_rate r)
        (1000. *. Tfmcc_core.Receiver.rtt r)
        (if Tfmcc_core.Receiver.is_clr r then "  <- CLR" else ""))
    (Tfmcc_core.Session.receivers session)
