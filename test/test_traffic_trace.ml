(* Tests for the background-traffic generators and the packet tracer. *)

let two_node ?(bandwidth_bps = 10e6) ?loss_p () =
  let e = Netsim.Engine.create ~seed:61 ~obs:(Obs.Sink.create ()) () in
  let topo = Netsim.Topology.create e in
  let a = Netsim.Topology.add_node topo in
  let b = Netsim.Topology.add_node topo in
  let loss_ab =
    match loss_p with
    | Some p -> Some (Netsim.Loss_model.bernoulli ~rng:(Netsim.Engine.split_rng e) ~p)
    | None -> None
  in
  let ab, _ =
    Netsim.Topology.connect topo ?loss_ab ~bandwidth_bps ~delay_s:0.005 a b
  in
  (e, topo, a, b, ab)

(* -------------------------------------------------------------- Traffic *)

let test_cbr_rate () =
  let e, topo, a, b, _ = two_node () in
  let mon = Netsim.Monitor.create e in
  Netsim.Monitor.watch_node mon b;
  let g = Netsim.Traffic.cbr topo ~flow:5 ~src:a ~dst:b ~rate_bps:1e6 () in
  Netsim.Traffic.start g ~at:0.;
  Netsim.Engine.run ~until:20. e;
  let bps = Netsim.Monitor.throughput_bps mon ~flow:5 ~t_start:1. ~t_end:20. in
  Alcotest.(check bool)
    (Printf.sprintf "CBR within 5%% of 1 Mbit/s (got %.0f)" bps)
    true
    (abs_float (bps -. 1e6) < 5e4)

let test_poisson_rate_and_variability () =
  let e, topo, a, b, _ = two_node () in
  let mon = Netsim.Monitor.create e in
  Netsim.Monitor.watch_node mon b;
  let g = Netsim.Traffic.poisson topo ~flow:5 ~src:a ~dst:b ~rate_bps:1e6 () in
  Netsim.Traffic.start g ~at:0.;
  Netsim.Engine.run ~until:40. e;
  let bps = Netsim.Monitor.throughput_bps mon ~flow:5 ~t_start:1. ~t_end:40. in
  Alcotest.(check bool)
    (Printf.sprintf "Poisson mean rate (got %.0f)" bps)
    true
    (abs_float (bps -. 1e6) < 1e5)

let test_on_off_average () =
  let e, topo, a, b, _ = two_node () in
  let mon = Netsim.Monitor.create e in
  Netsim.Monitor.watch_node mon b;
  let g =
    Netsim.Traffic.on_off topo ~flow:5 ~src:a ~dst:b ~rate_bps:2e6 ()
  in
  Netsim.Traffic.start g ~at:0.;
  Netsim.Engine.run ~until:120. e;
  let bps = Netsim.Monitor.throughput_bps mon ~flow:5 ~t_start:0. ~t_end:120. in
  (* long-run average = 2 Mbit/s * 0.5 duty = 1 Mbit/s, generously bounded *)
  Alcotest.(check bool)
    (Printf.sprintf "on-off long-run average (got %.0f)" bps)
    true
    (bps > 0.6e6 && bps < 1.4e6)

(* Every generated packet is 1000 bytes: the receiver's monitor counts
   bytes = packets * 1000. *)
let test_traffic_byte_accounting () =
  let e, topo, a, b, _ = two_node () in
  let mon = Netsim.Monitor.create e in
  Netsim.Monitor.watch_node mon b;
  let g = Netsim.Traffic.cbr topo ~flow:5 ~src:a ~dst:b ~rate_bps:1e6 () in
  Netsim.Traffic.start g ~at:0.;
  Netsim.Engine.run ~until:2. e;
  let total name =
    Obs.Metrics.sum_counters (Netsim.Engine.obs e).Obs.Sink.metrics name
  in
  let packets = total "netsim_monitor_packets_total" in
  Alcotest.(check bool) "packets delivered" true (packets > 200);
  Alcotest.(check int) "bytes = packets * size" (1000 * packets)
    (total "netsim_monitor_bytes_total")

(* ---------------------------------------------------------------- Trace *)

let lines tr =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' (Netsim.Trace.to_text tr))

(* Retained events of one kind, by the kind character of their line. *)
let count tr c = List.length (List.filter (fun l -> l.[0] = c) (lines tr))

let test_trace_records_tx_and_deliver () =
  let e, topo, a, b, ab = two_node () in
  let tr = Netsim.Trace.create () in
  Netsim.Trace.attach tr ab;
  let g = Netsim.Traffic.cbr topo ~flow:5 ~src:a ~dst:b ~rate_bps:1e6 () in
  Netsim.Traffic.start g ~at:0.;
  Netsim.Engine.run ~until:1. e;
  let tx = count tr '+' in
  let rx = count tr 'r' in
  Alcotest.(check bool) "transmissions recorded" true (tx > 50);
  Alcotest.(check int) "all delivered on clean link" tx rx

let test_trace_records_loss () =
  let e, topo, a, b, ab = two_node ~loss_p:0.5 () in
  let tr = Netsim.Trace.create () in
  Netsim.Trace.attach tr ab;
  let g = Netsim.Traffic.cbr topo ~flow:5 ~src:a ~dst:b ~rate_bps:1e6 () in
  Netsim.Traffic.start g ~at:0.;
  Netsim.Engine.run ~until:5. e;
  let tx = count tr '+' in
  let lost = count tr 'x' in
  let rx = count tr 'r' in
  Alcotest.(check int) "tx = lost + delivered" tx (lost + rx);
  Alcotest.(check bool) "roughly half lost" true
    (let frac = float_of_int lost /. float_of_int tx in
     frac > 0.35 && frac < 0.65)

let test_trace_records_queue_drops () =
  (* Overload a slow link: the queue must reject packets. *)
  let e, topo, a, b, ab = two_node ~bandwidth_bps:100e3 () in
  let tr = Netsim.Trace.create () in
  Netsim.Trace.attach tr ab;
  let g = Netsim.Traffic.cbr topo ~flow:5 ~src:a ~dst:b ~rate_bps:1e6 () in
  Netsim.Traffic.start g ~at:0.;
  Netsim.Engine.run ~until:10. e;
  Alcotest.(check bool) "queue drops recorded" true
    (count tr 'd' > 0)

(* 125 packets/s for 500 s is 125,000 tx and deliver events: the ring
   keeps the newest 100,000, oldest first. *)
let test_trace_ring_buffer () =
  let e, topo, a, b, ab = two_node () in
  let tr = Netsim.Trace.create () in
  Netsim.Trace.attach tr ab;
  let g = Netsim.Traffic.cbr topo ~flow:5 ~src:a ~dst:b ~rate_bps:1e6 () in
  Netsim.Traffic.start g ~at:0.;
  Netsim.Engine.run ~until:500. e;
  let lines = lines tr in
  Alcotest.(check int) "retains only capacity" 100_000 (List.length lines);
  Alcotest.(check bool) "total keeps counting" true
    (Netsim.Trace.total_recorded tr > 100_000);
  let times = List.map (fun l -> Scanf.sscanf l "%c %f" (fun _ t -> t)) lines in
  Alcotest.(check bool) "sorted" true (List.sort compare times = times)

let test_trace_text_format () =
  let e, topo, a, b, ab = two_node () in
  let tr = Netsim.Trace.create () in
  Netsim.Trace.attach tr ab;
  let g = Netsim.Traffic.cbr topo ~flow:5 ~src:a ~dst:b ~rate_bps:1e6 () in
  Netsim.Traffic.start g ~at:0.;
  Netsim.Engine.run ~until:0.1 e;
  let text = Netsim.Trace.to_text tr in
  Alcotest.(check bool) "non-empty" true (String.length text > 0);
  let first_line = List.hd (String.split_on_char '\n' text) in
  Alcotest.(check bool) "starts with an event char" true
    (String.length first_line > 0
    && List.mem first_line.[0] [ '+'; 'd'; 'x'; 'r' ])

let () =
  Alcotest.run "traffic_trace"
    [
      ( "traffic",
        [
          Alcotest.test_case "CBR rate" `Quick test_cbr_rate;
          Alcotest.test_case "Poisson rate" `Quick test_poisson_rate_and_variability;
          Alcotest.test_case "on-off average" `Slow test_on_off_average;
          Alcotest.test_case "byte accounting" `Quick test_traffic_byte_accounting;
        ] );
      ( "trace",
        [
          Alcotest.test_case "tx + deliver" `Quick test_trace_records_tx_and_deliver;
          Alcotest.test_case "loss drops" `Quick test_trace_records_loss;
          Alcotest.test_case "queue drops" `Quick test_trace_records_queue_drops;
          Alcotest.test_case "ring buffer" `Quick test_trace_ring_buffer;
          Alcotest.test_case "text format" `Quick test_trace_text_format;
        ] );
    ]
