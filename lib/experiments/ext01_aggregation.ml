open Tfmcc_core

(* Two-level tree: sender -- hub -- k branch nodes -- m receivers each.
   Receiver 0 of branch 0 has the worst loss and must end up CLR. *)
type built = {
  sc : Scenario.t;
  sender : Netsim.Node.t;
  branches : Netsim.Node.t array;
  rx_nodes : Netsim.Node.t array array;
  worst : Netsim.Node.t;
}

let build ~seed ~k ~m =
  let sc = Scenario.base ~seed () in
  let topo = sc.Scenario.topo in
  let eng = sc.Scenario.engine in
  let sender = Netsim.Topology.add_node topo in
  let hub = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:10e6 ~delay_s:0.005 sender hub);
  let branches =
    Array.init k (fun _ ->
        let b = Netsim.Topology.add_node topo in
        ignore (Netsim.Topology.connect topo ~bandwidth_bps:10e6 ~delay_s:0.01 hub b);
        b)
  in
  let rx_nodes =
    Array.mapi
      (fun bi branch ->
        Array.init m (fun ri ->
            let rx = Netsim.Topology.add_node topo in
            let p = if bi = 0 && ri = 0 then 0.04 else 0.01 in
            ignore
              (Netsim.Topology.connect topo
                 ~loss_ab:
                   (Netsim.Loss_model.bernoulli ~rng:(Netsim.Engine.split_rng eng) ~p)
                 ~bandwidth_bps:10e6 ~delay_s:0.01 branch rx);
            rx))
      branches
  in
  { sc; sender; branches; rx_nodes; worst = rx_nodes.(0).(0) }

type outcome = {
  o_reports_at_sender : float;  (* per round *)
  o_rate_kbps : float;
  o_clr_correct : bool;
}

let measure b ~t_end snd =
  Scenario.run_until b.sc t_end;
  let rounds = Stdlib.max 1 (Sender.round snd) in
  {
    o_reports_at_sender =
      float_of_int (Sender.reports_received snd) /. float_of_int rounds;
    o_rate_kbps = Sender.rate_bytes_per_s snd *. 8. /. 1000.;
    o_clr_correct = Sender.clr snd = Some (Netsim.Node.id b.worst);
  }

let run_plain ~seed ~k ~m ~t_end =
  let b = build ~seed ~k ~m in
  let receivers = Array.to_list b.rx_nodes |> List.concat_map Array.to_list in
  let session =
    Session.build
      (Netsim_env.backend b.sc.Scenario.topo ~session:Scenario.tfmcc_flow)
      ~session:Scenario.tfmcc_flow ~sender:b.sender ~receivers ()
  in
  Session.start session ~at:0.;
  measure b ~t_end (Session.sender session)

let run_aggregated ~seed ~k ~m ~t_end =
  let b = build ~seed ~k ~m in
  let cfg = { Config.default with use_suppression = false } in
  let be = Netsim_env.backend b.sc.Scenario.topo ~session:Scenario.tfmcc_flow in
  let sender_agent =
    Sender.create ~env:(be.env b.sender) ~cfg ~session:Scenario.tfmcc_flow ()
  in
  be.on_report b.sender (Sender.deliver_report sender_agent);
  let aggs =
    Array.map
      (fun branch ->
        let a =
          Aggregator.create ~env:(be.env branch) ~session:Scenario.tfmcc_flow
            ~parent:(Netsim.Node.id b.sender)
        in
        be.on_report branch (Aggregator.deliver_report a);
        a)
      b.branches
  in
  let receivers =
    Array.mapi
      (fun bi row ->
        Array.map
          (fun rx ->
            let r =
              Receiver.create ~env:(be.env rx) ~cfg ~session:Scenario.tfmcc_flow
                ~sender:(Netsim.Node.id b.sender)
                ~report_to:(Netsim.Node.id b.branches.(bi)) ()
            in
            be.on_data rx (Receiver.deliver_data r);
            Receiver.join r;
            r)
          row)
      b.rx_nodes
  in
  Sender.start sender_agent ~at:0.;
  let o = measure b ~t_end sender_agent in
  let reports_sent =
    Array.fold_left
      (fun acc row ->
        Array.fold_left (fun acc r -> acc + Receiver.reports_sent r) acc row)
      0 receivers
  in
  let agg_in = Array.fold_left (fun acc a -> acc + Aggregator.reports_in a) 0 aggs in
  (o, reports_sent, agg_in)

let run ~mode ~seed =
  let k = 4 in
  let m = Scenario.scale mode ~quick:10 ~full:25 in
  let t_end = Scenario.scale mode ~quick:80. ~full:200. in
  let plain = run_plain ~seed ~k ~m ~t_end in
  let agg, agg_reports_sent, agg_in = run_aggregated ~seed ~k ~m ~t_end in
  [
    Series.make
      ~title:
        (Printf.sprintf
           "Extension (6.1): aggregation tree vs end-to-end suppression \
            (%d branches x %d receivers)"
           k m)
      ~xlabel:"variant (0=end-to-end, 1=aggregation tree)"
      ~ylabels:[ "reports/round at sender"; "rate (kbit/s)"; "CLR correct" ]
      ~notes:
        [
          Printf.sprintf
            "aggregation: receivers sent %d reports, aggregators absorbed \
             %d and forwarded %.1f/round to the sender"
            agg_reports_sent agg_in agg.o_reports_at_sender;
          "paper: a tree solves implosion outright but moves the hard \
           problem to scalable tree construction";
        ]
      [
        ( 0.,
          [
            plain.o_reports_at_sender;
            plain.o_rate_kbps;
            (if plain.o_clr_correct then 1. else 0.);
          ] );
        ( 1.,
          [
            agg.o_reports_at_sender;
            agg.o_rate_kbps;
            (if agg.o_clr_correct then 1. else 0.);
          ] );
      ];
  ]
