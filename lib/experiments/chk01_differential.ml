(* Differential oracle (DESIGN.md §11): TFMCC degenerates to TFRC when
   the group holds exactly one receiver — the sole receiver is the CLR,
   every report is CLR feedback, and the rate machinery reduces to the
   unicast equation-tracking loop.  Running both protocols over the
   same dumbbell must therefore land within a small tolerance of each
   other; a growing gap means one of the two implementations drifted. *)

type comparison = {
  label : string;
  tfmcc_kbps : float;
  tfrc_kbps : float;
  rel_err : float;
}

let tfrc_flow = 7

(* Bottleneck queue, packets. *)
let queue_capacity = 20

(* A TFRC dumbbell geometrically identical to Scenario.dumbbell with
   n_tfmcc_rx = 1, n_tcp = 0: same bottleneck, same 10x access links. *)
let run_tfrc ~seed ~bottleneck_bps ~delay_s ~t_end =
  let sc = Scenario.base ~seed () in
  let left = Netsim.Topology.add_node sc.Scenario.topo in
  let right = Netsim.Topology.add_node sc.Scenario.topo in
  ignore
    (Netsim.Topology.connect sc.Scenario.topo ~queue_capacity
       ~bandwidth_bps:bottleneck_bps ~delay_s left right);
  let access_bps = 10. *. bottleneck_bps in
  let src = Netsim.Topology.add_node sc.Scenario.topo in
  ignore
    (Netsim.Topology.connect sc.Scenario.topo ~bandwidth_bps:access_bps
       ~delay_s:0.001 src left);
  let dst = Netsim.Topology.add_node sc.Scenario.topo in
  ignore
    (Netsim.Topology.connect sc.Scenario.topo ~bandwidth_bps:access_bps
       ~delay_s:0.001 right dst);
  let sender =
    Tfrc.Tfrc_sender.create sc.Scenario.topo ~conn:1 ~flow:tfrc_flow ~src ~dst ()
  in
  let _receiver =
    Tfrc.Tfrc_receiver.create sc.Scenario.topo ~conn:1 ~node:dst ~sender:src
  in
  Netsim.Monitor.watch_node_flow sc.Scenario.monitor dst ~flow:tfrc_flow;
  Tfrc.Tfrc_sender.start sender ~at:0.;
  Scenario.run_until sc t_end;
  sc

let compare_at ~seed ~bottleneck_bps ~delay_s ~t_end () =
  let warmup = t_end /. 3. in
  let d =
    Scenario.dumbbell ~seed ~bottleneck_bps ~delay_s ~queue_capacity
      ~n_tfmcc_rx:1 ~n_tcp:0 ()
  in
  Tfmcc_core.Session.start d.Scenario.session ~at:0.;
  Scenario.run_until d.Scenario.sc t_end;
  let tfmcc_kbps =
    Scenario.mean_throughput_kbps d.Scenario.sc ~flow:Scenario.tfmcc_flow
      ~t_start:warmup ~t_end
  in
  let tfrc_sc = run_tfrc ~seed ~bottleneck_bps ~delay_s ~t_end in
  let tfrc_kbps =
    Scenario.mean_throughput_kbps tfrc_sc ~flow:tfrc_flow ~t_start:warmup ~t_end
  in
  let rel_err =
    Check.Oracle.relative_error ~expected:tfrc_kbps ~actual:tfmcc_kbps
  in
  {
    label =
      Printf.sprintf "%.1f Mbit/s, %.0f ms" (bottleneck_bps /. 1e6)
        (delay_s *. 1000.);
    tfmcc_kbps;
    tfrc_kbps;
    rel_err;
  }

let compare_pair = compare_at ~seed:42

let tolerance = 0.10

let run ~mode ~seed =
  let t_end = Scenario.scale mode ~quick:120. ~full:300. in
  let cells =
    [ (1e6, 0.02); (1e6, 0.04); (2e6, 0.04) ]
    @ Scenario.scale mode ~quick:[] ~full:[ (2e6, 0.08); (4e6, 0.02) ]
  in
  let results =
    List.map
      (fun (bps, delay) ->
        compare_at ~seed ~bottleneck_bps:bps ~delay_s:delay ~t_end ())
      cells
  in
  let rows =
    List.mapi
      (fun i r -> (float_of_int i, [ r.tfmcc_kbps; r.tfrc_kbps; r.rel_err ]))
      results
  in
  let worst =
    List.fold_left (fun acc r -> Float.max acc r.rel_err) 0. results
  in
  let notes =
    List.map
      (fun r ->
        Printf.sprintf "%s: TFMCC %.0f vs TFRC %.0f kbit/s (gap %.1f%%)"
          r.label r.tfmcc_kbps r.tfrc_kbps (100. *. r.rel_err))
      results
    @ [
        Printf.sprintf
          "worst gap %.1f%% vs %.0f%% tolerance — %s" (100. *. worst)
          (100. *. tolerance)
          (if worst <= tolerance then "PASS" else "FAIL");
      ]
  in
  [
    Series.make
      ~title:
        "Chk 1: differential oracle — TFMCC with one receiver vs unicast TFRC"
      ~xlabel:"configuration #"
      ~ylabels:[ "TFMCC (kbit/s)"; "TFRC (kbit/s)"; "relative gap" ]
      ~notes rows;
  ]
