(* Stock ticker: the paper's "many receivers, long-lived low-rate stream"
   workload (its Conclusions name stock-price tickers explicitly).

   A single sender multicasts quotes to hundreds of receivers.  The
   interesting part is the feedback machinery at scale: this example
   prints how many receiver reports the sender actually sees per feedback
   round (suppression at work) and how initial RTT measurements spread
   through the group (the Fig. 12 effect).

   Run with: dune exec examples/stock_ticker.exe *)

let () =
  let n = 300 in
  let engine = Netsim.Engine.create ~seed:17 () in
  let topo = Netsim.Topology.create engine in
  let sender = Netsim.Topology.add_node topo in
  let backbone = Netsim.Topology.add_node topo in
  (* A modest shared uplink bounds the ticker's rate. *)
  ignore
    (Netsim.Topology.connect topo ~bandwidth_bps:2e6 ~delay_s:0.002 sender backbone);
  let rng = Netsim.Engine.rng engine in
  let receivers =
    List.init n (fun _ ->
        let rx = Netsim.Topology.add_node topo in
        let delay = 0.01 +. Stats.Rng.float rng 0.06 in
        ignore
          (Netsim.Topology.connect topo ~bandwidth_bps:10e6 ~delay_s:delay
             backbone rx);
        rx)
  in
  let session =
    Tfmcc_core.Session.build (Netsim_env.backend topo ~session:1) ~session:1
      ~sender ~receivers ()
  in
  Tfmcc_core.Session.start session ~at:0.;
  let snd = Tfmcc_core.Session.sender session in
  Printf.printf "%d receivers; watching the feedback machinery:\n\n" n;
  Printf.printf "%5s %12s %7s %14s %14s %9s\n" "t(s)" "rate(kbit/s)" "round"
    "reports-total" "reports/round" "with-RTT";
  let last_reports = ref 0 and last_round = ref 0 in
  for sec = 1 to 120 do
    Netsim.Engine.run ~until:(float_of_int sec) engine;
    if sec mod 10 = 0 then begin
      let reports = Tfmcc_core.Sender.reports_received snd in
      let round = Tfmcc_core.Sender.round snd in
      let per_round =
        if round > !last_round then
          float_of_int (reports - !last_reports) /. float_of_int (round - !last_round)
        else 0.
      in
      Printf.printf "%5d %12.0f %7d %14d %14.1f %9d\n" sec
        (Tfmcc_core.Sender.rate_bytes_per_s snd *. 8. /. 1000.)
        round reports per_round
        (Tfmcc_core.Session.receivers_with_rtt session);
      last_reports := reports;
      last_round := round
    end
  done;
  let suppressed =
    List.fold_left
      (fun acc r -> acc + Tfmcc_core.Receiver.timers_suppressed r)
      0
      (Tfmcc_core.Session.receivers session)
  in
  Printf.printf
    "\nfeedback summary: %d reports reached the sender across %d rounds;\n\
     %d feedback timers were suppressed by echoed feedback —\n\
     an implosion (%d receivers all reporting every round) never happens.\n"
    (Tfmcc_core.Sender.reports_received snd)
    (Tfmcc_core.Sender.round snd)
    suppressed n
