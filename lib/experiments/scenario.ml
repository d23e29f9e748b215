type mode = Quick | Full

let scale mode ~quick ~full = match mode with Quick -> quick | Full -> full

type t = {
  engine : Netsim.Engine.t;
  topo : Netsim.Topology.t;
  monitor : Netsim.Monitor.t;
  obs : Obs.Sink.t;
}

(* The cell every scenario built while a [with_cell] callback runs
   reports into: its sink, and optionally the strict run's invariant
   checker and the sweep supervisor's watchdog.  Experiment entry points
   have a fixed signature (Registry.run), so the cell runner threads
   these through here instead of through every builder.  Domain-local:
   each parallel sweep worker installs its own cell for its own runs
   without seeing (or racing with) any other domain's -- sinks are
   single-domain objects and must never be shared. *)
type cell = {
  c_obs : Obs.Sink.t;
  c_checks : Check.Invariant.t option;
  c_watchdog : Netsim.Watchdog.config option;
}

let installed : cell option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_cell ?checks ?watchdog obs f =
  let saved = Domain.DLS.get installed in
  Domain.DLS.set installed
    (Some { c_obs = obs; c_checks = checks; c_watchdog = watchdog });
  Fun.protect ~finally:(fun () -> Domain.DLS.set installed saved) f

let ambient_obs () = Option.map (fun c -> c.c_obs) (Domain.DLS.get installed)

let ambient_checker () =
  Option.bind (Domain.DLS.get installed) (fun c -> c.c_checks)

let base ?(seed = 42) ?obs () =
  let cell = Domain.DLS.get installed in
  let obs =
    match (obs, cell) with
    | Some s, _ -> s
    | None, Some c -> c.c_obs
    | None, None -> Obs.Sink.create ()
  in
  let engine = Netsim.Engine.create ~seed ~obs () in
  let topo = Netsim.Topology.create engine in
  let monitor = Netsim.Monitor.create engine in
  (match cell with
  | Some { c_checks; c_watchdog; _ } ->
      Option.iter (fun ch -> Check.Invariant.watch_engine ch engine) c_checks;
      Option.iter (fun cfg -> Netsim.Watchdog.install cfg engine) c_watchdog
  | None -> ());
  { engine; topo; monitor; obs }

let tfmcc_flow = 1

let tcp_flow i = 100 + i

type tcp_pair = { source : Tcp.Tcp_source.t; sink : Tcp.Tcp_sink.t; flow : int }

let add_tcp sc ~conn ~flow ~src ~dst ~at =
  let source = Tcp.Tcp_source.create sc.topo ~conn ~flow ~src ~dst in
  let sink = Tcp.Tcp_sink.create sc.topo ~conn ~node:dst in
  Netsim.Monitor.watch_node_flow sc.monitor dst ~flow;
  Tcp.Tcp_source.start source ~at;
  { source; sink; flow }

(* ------------------------------------------------------------- dumbbell *)

type dumbbell = {
  sc : t;
  session : Tfmcc_core.Session.t;
  tcp : tcp_pair list;
  bottleneck : Netsim.Link.t;
  left_router : Netsim.Node.t;
  right_router : Netsim.Node.t;
  sender_node : Netsim.Node.t;
}

(* Default queue of every link, packets. *)
let queue_capacity = 50

let dumbbell ?seed ?obs ?(cfg = Tfmcc_core.Config.default) ~bottleneck_bps
    ~delay_s ?(queue_capacity = queue_capacity) ~n_tfmcc_rx ~n_tcp () =
  let sc = base ?seed ?obs () in
  let left = Netsim.Topology.add_node sc.topo in
  let right = Netsim.Topology.add_node sc.topo in
  let bottleneck, _ =
    Netsim.Topology.connect sc.topo ~queue_capacity ~bandwidth_bps:bottleneck_bps
      ~delay_s left right
  in
  let access_bps = 10. *. bottleneck_bps in
  let mk_left () =
    let n = Netsim.Topology.add_node sc.topo in
    ignore
      (Netsim.Topology.connect sc.topo ~bandwidth_bps:access_bps ~delay_s:0.001 n left);
    n
  in
  let mk_right () =
    let n = Netsim.Topology.add_node sc.topo in
    ignore
      (Netsim.Topology.connect sc.topo ~bandwidth_bps:access_bps ~delay_s:0.001 right n);
    n
  in
  let tfmcc_sender = mk_left () in
  let rx_nodes = List.init n_tfmcc_rx (fun _ -> mk_right ()) in
  let session =
    Tfmcc_core.Session.build
      (Netsim_env.backend sc.topo ~session:tfmcc_flow)
      ~cfg ~session:tfmcc_flow ~sender:tfmcc_sender ~receivers:rx_nodes ()
  in
  List.iter (fun n -> Netsim.Monitor.watch_node_flow sc.monitor n ~flow:tfmcc_flow)
    rx_nodes;
  let tcp =
    List.init n_tcp (fun i ->
        let src = mk_left () and dst = mk_right () in
        add_tcp sc ~conn:(1000 + i) ~flow:(tcp_flow i) ~src ~dst ~at:0.)
  in
  (match ambient_checker () with
  | Some checker ->
      Check.Invariant.watch_link checker sc.engine ~name:"bottleneck" bottleneck;
      Check.Invariant.watch_session checker sc.engine ~cfg session
  | None -> ());
  {
    sc;
    session;
    tcp;
    bottleneck;
    left_router = left;
    right_router = right;
    sender_node = tfmcc_sender;
  }

(* ----------------------------------------------------------------- star *)

type star = {
  s_sc : t;
  s_session : Tfmcc_core.Session.t;
  s_hub : Netsim.Node.t;
  s_rx_nodes : Netsim.Node.t array;
  s_rx_links : (Netsim.Link.t * Netsim.Link.t) array;
  s_tcp : tcp_pair array;
}

let star ?seed ?obs ?(cfg = Tfmcc_core.Config.default) ?uplink_bps ~link_bps
    ~link_delays ?link_losses ?return_losses ?(with_tcp = false) () =
  let n = Array.length link_delays in
  if n = 0 then invalid_arg "Scenario.star: need at least one receiver";
  (match link_losses with
  | Some l when Array.length l <> n ->
      invalid_arg "Scenario.star: link_losses length mismatch"
  | _ -> ());
  (match return_losses with
  | Some l when Array.length l <> n ->
      invalid_arg "Scenario.star: return_losses length mismatch"
  | _ -> ());
  let sc = base ?seed ?obs () in
  let uplink_bps = Option.value uplink_bps ~default:(10. *. link_bps) in
  let sender = Netsim.Topology.add_node sc.topo in
  let hub = Netsim.Topology.add_node sc.topo in
  ignore
    (Netsim.Topology.connect sc.topo ~queue_capacity ~bandwidth_bps:uplink_bps
       ~delay_s:0.005 sender hub);
  let rng = Netsim.Engine.rng sc.engine in
  let rx_nodes = Array.make n sender and rx_links = Array.make n None in
  for i = 0 to n - 1 do
    let rx = Netsim.Topology.add_node sc.topo in
    let mk_loss = function
      | Some l when l > 0. ->
          Some (Netsim.Loss_model.bernoulli ~rng:(Stats.Rng.split rng) ~p:l)
      | _ -> None
    in
    let loss_ab = mk_loss (Option.map (fun l -> l.(i)) link_losses) in
    let loss_ba = mk_loss (Option.map (fun l -> l.(i)) return_losses) in
    let ab, ba =
      Netsim.Topology.connect sc.topo ~queue_capacity ?loss_ab ?loss_ba
        ~bandwidth_bps:link_bps ~delay_s:link_delays.(i) hub rx
    in
    rx_nodes.(i) <- rx;
    rx_links.(i) <- Some (ab, ba)
  done;
  let rx_links = Array.map Option.get rx_links in
  let session =
    Tfmcc_core.Session.build
      (Netsim_env.backend sc.topo ~session:tfmcc_flow)
      ~cfg ~session:tfmcc_flow ~sender ~receivers:(Array.to_list rx_nodes) ()
  in
  Array.iter
    (fun nd -> Netsim.Monitor.watch_node_flow sc.monitor nd ~flow:tfmcc_flow)
    rx_nodes;
  let tcp =
    if not with_tcp then [||]
    else
      Array.init n (fun i ->
          (* Each TCP source sits on its own node at the hub so its path
             shares the receiver link. *)
          let src = Netsim.Topology.add_node sc.topo in
          ignore
            (Netsim.Topology.connect sc.topo ~bandwidth_bps:uplink_bps
               ~delay_s:0.001 src hub);
          add_tcp sc ~conn:(2000 + i) ~flow:(tcp_flow i) ~src ~dst:rx_nodes.(i)
            ~at:0.)
  in
  (match ambient_checker () with
  | Some checker ->
      Array.iteri
        (fun i (ab, ba) ->
          Check.Invariant.watch_link checker sc.engine
            ~name:(Printf.sprintf "hub->rx%d" i) ab;
          Check.Invariant.watch_link checker sc.engine
            ~name:(Printf.sprintf "rx%d->hub" i) ba)
        rx_links;
      Check.Invariant.watch_session checker sc.engine ~cfg session
  | None -> ());
  {
    s_sc = sc;
    s_session = session;
    s_hub = hub;
    s_rx_nodes = rx_nodes;
    s_rx_links = rx_links;
    s_tcp = tcp;
  }

(* -------------------------------------------------------------- helpers *)

let run_until sc t = Netsim.Engine.run ~until:t sc.engine

let sample_every sc ~dt ~t_end f =
  let rec schedule t =
    if t <= t_end then
      ignore
        (Netsim.Engine.at sc.engine ~time:t (fun () ->
             f t;
             schedule (t +. dt)))
  in
  schedule dt

let throughput_series sc ~flow ~bin ~t_end =
  Netsim.Monitor.rate_series_bps sc.monitor ~flow ~bin ~t_end
  |> Array.map (fun (t, bps) -> (t, bps /. 1000.))

let mean_throughput_kbps sc ~flow ~t_start ~t_end =
  Netsim.Monitor.throughput_bps sc.monitor ~flow ~t_start ~t_end /. 1000.
