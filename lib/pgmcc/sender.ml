(* Switch acker when a candidate's modelled throughput is below this
   fraction of the acker's. *)
let hysteresis = 0.75

(* Data packet size in bytes. *)
let packet_size = 1000

type peer = { mutable p_rtt : float; mutable p_loss : float; mutable p_seen : float }

type t = {
  topo : Netsim.Topology.t;
  engine : Netsim.Engine.t;
  session : int;
  node : Netsim.Node.t;
  peers : (int, peer) Hashtbl.t;
  mutable seq : int;
  mutable acked : int;  (* highest seq the acker has acked *)
  mutable window : float;
  mutable ssthresh : float;
  mutable acker : int;  (* -1 none *)
  mutable acker_rtt : float;
  mutable last_halving : float;
  mutable idle_timer : Netsim.Engine.handle option;
  obs : Obs.Sink.t;
  scope : Obs.Journal.scope;
  m_sent : Obs.Metrics.Counter.t;
  m_acker_changes : Obs.Metrics.Counter.t;
  m_halvings : Obs.Metrics.Counter.t;
}

let jnl t ?severity ev =
  Obs.Sink.event t.obs ~time:(Netsim.Engine.now t.engine) ?severity t.scope ev

(* PGMCC's acker is the group's limiting receiver, the analogue of
   TFMCC's CLR, so its election reuses the Clr_change event. *)
let note_acker_change t ~prev ~acker =
  Obs.Metrics.Counter.inc t.m_acker_changes;
  jnl t (Obs.Journal.Clr_change { prev; clr = acker })

let window t = t.window

let acker t = if t.acker < 0 then None else Some t.acker

(* Simplified model used for the election: T ∝ 1 / (R √p).  A receiver
   with no measured loss is treated as very fast. *)
let modelled_throughput ~rtt ~loss =
  let rtt = Float.max 1e-3 rtt in
  if loss <= 1e-6 then 1e12 else 1. /. (rtt *. sqrt loss)

let cancel_idle t =
  match t.idle_timer with
  | Some h ->
      Netsim.Engine.cancel t.engine h;
      t.idle_timer <- None
  | None -> ()

let send_packet t =
  let now = Netsim.Engine.now t.engine in
  let payload =
    Wire.Data { session = t.session; seq = t.seq; ts = now; acker = t.acker; window = t.window }
  in
  let p =
    Netsim.Packet.alloc (Netsim.Engine.arena t.engine)
      ~flow:t.session ~size:packet_size ~src:(Netsim.Node.id t.node)
      ~dst:(Netsim.Packet.Multicast t.session) ~created:now payload
  in
  t.seq <- t.seq + 1;
  Obs.Metrics.Counter.inc t.m_sent;
  Netsim.Topology.inject t.topo p

(* Idle/timeout guard: with no acks for a while (acker silent or not yet
   elected), collapse the window and emit a probe so the session cannot
   deadlock. *)
let rec restart_idle t =
  cancel_idle t;
  let delay = Float.max 0.2 (4. *. t.acker_rtt) in
  t.idle_timer <-
    Some
      (Netsim.Engine.after t.engine ~delay (fun () ->
           t.idle_timer <- None;
           if t.acker >= 0 then begin
             jnl t ~severity:Obs.Journal.Warn
               (Obs.Journal.Timeout { what = "idle" });
             let from_pkts = t.window in
             t.ssthresh <- Float.max 2. (t.window /. 2.);
             t.window <- 1.;
             jnl t ~severity:Obs.Journal.Debug
               (Obs.Journal.Cwnd_change
                  { from_pkts; to_pkts = t.window; reason = "idle-collapse" })
           end;
           t.acked <- t.seq - 1;
           send_packet t;
           restart_idle t))

let send_window t =
  let inflight () = t.seq - 1 - t.acked in
  while float_of_int (inflight ()) < t.window do
    send_packet t
  done

let update_peer t ~rx ~echo_ts ~loss =
  let now = Netsim.Engine.now t.engine in
  let rtt = now -. echo_ts in
  if rtt > 0. then begin
    let peer =
      match Hashtbl.find_opt t.peers rx with
      | Some p -> p
      | None ->
          let p = { p_rtt = rtt; p_loss = loss; p_seen = now } in
          Hashtbl.add t.peers rx p;
          p
    in
    peer.p_rtt <- (0.7 *. peer.p_rtt) +. (0.3 *. rtt);
    peer.p_loss <- loss;
    peer.p_seen <- now
  end

let maybe_switch_acker t ~rx =
  if rx <> t.acker then begin
    match (Hashtbl.find_opt t.peers rx, Hashtbl.find_opt t.peers t.acker) with
    | Some cand, Some cur ->
        let t_cand = modelled_throughput ~rtt:cand.p_rtt ~loss:cand.p_loss in
        let t_cur = modelled_throughput ~rtt:cur.p_rtt ~loss:cur.p_loss in
        if t_cand < hysteresis *. t_cur then begin
          let prev = t.acker in
          t.acker <- rx;
          t.acker_rtt <- cand.p_rtt;
          note_acker_change t ~prev ~acker:rx;
          (* Catch up the ack clock so the new acker's acks take over. *)
          t.acked <- t.seq - 1
        end
    | Some cand, None ->
        let prev = t.acker in
        t.acker <- rx;
        t.acker_rtt <- cand.p_rtt;
        note_acker_change t ~prev ~acker:rx
    | None, _ -> ()
  end

let halve t =
  let now = Netsim.Engine.now t.engine in
  if now -. t.last_halving >= t.acker_rtt then begin
    let from_pkts = t.window in
    t.ssthresh <- Float.max 2. (t.window /. 2.);
    t.window <- t.ssthresh;
    t.last_halving <- now;
    Obs.Metrics.Counter.inc t.m_halvings;
    jnl t ~severity:Obs.Journal.Debug
      (Obs.Journal.Cwnd_change
         { from_pkts; to_pkts = t.window; reason = "nak-halve" })
  end

let on_ack t ~rx ~ack_seq ~echo_ts ~loss =
  update_peer t ~rx ~echo_ts ~loss;
  if t.acker < 0 then begin
    (* First report elects the first acker. *)
    t.acker <- rx;
    t.acker_rtt <- (Hashtbl.find t.peers rx).p_rtt;
    note_acker_change t ~prev:(-1) ~acker:rx
  end
  else maybe_switch_acker t ~rx;
  if rx = t.acker then begin
    (match Hashtbl.find_opt t.peers rx with
    | Some p -> t.acker_rtt <- p.p_rtt
    | None -> ());
    if ack_seq > t.acked then begin
      let newly = ack_seq - t.acked in
      t.acked <- ack_seq;
      for _ = 1 to newly do
        if t.window < t.ssthresh then t.window <- t.window +. 1.
        else t.window <- t.window +. (1. /. t.window)
      done;
      restart_idle t;
      send_window t
    end
  end

let on_nak t ~rx ~echo_ts ~loss =
  update_peer t ~rx ~echo_ts ~loss;
  if t.acker < 0 then on_ack t ~rx ~ack_seq:(-1) ~echo_ts ~loss
  else begin
    maybe_switch_acker t ~rx;
    if rx = t.acker then begin
      halve t;
      send_window t
    end
  end

let create topo ~session ~node () =
  let obs = Netsim.Engine.obs (Netsim.Topology.engine topo) in
  let metrics = obs.Obs.Sink.metrics in
  let labels = [ ("session", string_of_int session) ] in
  let t =
    {
      topo;
      engine = Netsim.Topology.engine topo;
      session;
      node;
      peers = Hashtbl.create 32;
      seq = 0;
      acked = -1;
      window = 1.;
      ssthresh = 64.;
      acker = -1;
      acker_rtt = 0.2;
      last_halving = neg_infinity;
      idle_timer = None;
      obs;
      scope =
        Obs.Journal.scope ~session ~node:(Netsim.Node.id node) "pgmcc.sender";
      m_sent = Obs.Metrics.counter metrics ~labels "pgmcc_packets_sent_total";
      m_acker_changes =
        Obs.Metrics.counter metrics ~labels "pgmcc_acker_changes_total";
      m_halvings = Obs.Metrics.counter metrics ~labels "pgmcc_halvings_total";
    }
  in
  Netsim.Node.attach node (fun p ->
      match p.Netsim.Packet.payload with
      | Wire.Ack { session; rx_id; ack_seq; ts = _; echo_ts; loss }
        when session = t.session ->
          on_ack t ~rx:rx_id ~ack_seq ~echo_ts ~loss
      | Wire.Nak { session; rx_id; lost_seq = _; ts = _; echo_ts; loss }
        when session = t.session ->
          on_nak t ~rx:rx_id ~echo_ts ~loss
      | _ -> ());
  t

let start t ~at =
  ignore
    (Netsim.Engine.at t.engine ~time:at (fun () ->
         send_packet t;
         restart_idle t))
