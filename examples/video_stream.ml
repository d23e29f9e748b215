(* Video streaming: the paper's motivating "long-lived stream" workload.

   A sender streams to a heterogeneous audience whose members join and
   leave over time.  The application caps the rate at the stream's top
   encoding (3 Mbit/s, via Config.max_rate) and we track which quality
   tier the current TFMCC rate would sustain — the classic single-rate
   multicast trade-off: the slowest active viewer sets everyone's
   quality.

   Run with: dune exec examples/video_stream.exe *)

let tiers = [ (2500., "1080p"); (1200., "720p"); (600., "480p"); (250., "240p") ]

let tier_of kbps =
  let rec pick = function
    | [] -> "audio-only"
    | (min_kbps, name) :: rest -> if kbps >= min_kbps then name else pick rest
  in
  pick tiers

let () =
  let engine = Netsim.Engine.create ~seed:3 () in
  let topo = Netsim.Topology.create engine in
  let sender = Netsim.Topology.add_node topo in
  let hub = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:1e9 ~delay_s:0.005 sender hub);
  (* Audience link profiles: fibre, cable, DSL, congested wifi. *)
  let profiles =
    [|
      ("fibre", 50e6, 0.01, 0.0);
      ("cable", 10e6, 0.02, 0.0);
      ("dsl", 4e6, 0.03, 0.001);
      ("wifi", 2e6, 0.025, 0.01);
    |]
  in
  let mk_viewer i =
    let name, bw, delay, loss = profiles.(i mod Array.length profiles) in
    let rx = Netsim.Topology.add_node topo in
    let loss_ab =
      if loss > 0. then
        Some
          (Netsim.Loss_model.bernoulli
             ~rng:(Netsim.Engine.split_rng engine)
             ~p:loss)
      else None
    in
    ignore (Netsim.Topology.connect topo ?loss_ab ~bandwidth_bps:bw ~delay_s:delay hub rx);
    (Printf.sprintf "%s-%d" name i, rx)
  in
  let viewers = List.init 8 mk_viewer in
  (* Cap the stream at its top encoding rate. *)
  let cfg =
    { Tfmcc_core.Config.default with max_rate = 3e6 /. 8. (* bytes/s *) }
  in
  let session =
    Tfmcc_core.Session.build (Netsim_env.backend topo ~session:1) ~cfg ~session:1
      ~sender ~receivers:(List.map snd viewers) ()
  in
  (* Staggered joins; the wifi viewers leave midway through. *)
  let receivers =
    List.map
      (fun (name, node) ->
        (name, Tfmcc_core.Session.receiver session ~node_id:(Netsim.Node.id node)))
      viewers
  in
  List.iteri
    (fun i (name, r) ->
      let at = 1. +. (8. *. float_of_int i) in
      ignore
        (Netsim.Engine.at engine ~time:at (fun () ->
             Printf.printf "t=%3.0f: %s joins\n" at name;
             Tfmcc_core.Receiver.join r)))
    receivers;
  List.iter
    (fun (name, r) ->
      if String.length name >= 4 && String.sub name 0 4 = "wifi" then
        ignore
          (Netsim.Engine.at engine ~time:120. (fun () ->
               Printf.printf "t=120: %s leaves\n" name;
               Tfmcc_core.Receiver.leave r ())))
    receivers;
  Tfmcc_core.Session.start ~join_receivers:false session ~at:0.;
  let snd = Tfmcc_core.Session.sender session in
  Printf.printf "%5s %12s %10s %s\n" "t(s)" "rate(kbit/s)" "quality" "CLR";
  for sec = 1 to 180 do
    Netsim.Engine.run ~until:(float_of_int sec) engine;
    if sec mod 10 = 0 then begin
      let kbps = Tfmcc_core.Sender.rate_bytes_per_s snd *. 8. /. 1000. in
      Printf.printf "%5d %12.0f %10s %s\n" sec kbps (tier_of kbps)
        (match Tfmcc_core.Sender.clr snd with
        | Some id -> (
            match
              List.find_opt
                (fun (_, r) -> Tfmcc_core.Receiver.node_id r = id)
                receivers
            with
            | Some (name, _) -> name
            | None -> string_of_int id)
        | None -> "-")
    end
  done;
  Printf.printf "\nviewer goodput over the session:\n";
  List.iter
    (fun (name, r) ->
      Printf.printf "  %-10s %7d packets  p=%.4f  rtt=%3.0f ms\n" name
        (Tfmcc_core.Receiver.packets_received r)
        (Tfmcc_core.Receiver.loss_event_rate r)
        (1000. *. Tfmcc_core.Receiver.rtt r))
    receivers
