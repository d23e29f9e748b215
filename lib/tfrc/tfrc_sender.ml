let t_mbi = 64.  (* max backoff interval, seconds (RFC 3448) *)

let packet_size = Wire.data_size

(* Bytes/s until the first feedback: one packet a second (RFC 3448
   §4.2 spirit). *)
let initial_rate = float_of_int packet_size

let min_rate = float_of_int packet_size /. t_mbi

type t = {
  topo : Netsim.Topology.t;
  engine : Netsim.Engine.t;
  conn : int;
  flow : int;
  src : Netsim.Node.t;
  dst : Netsim.Node.t;
  mutable running : bool;
  mutable rate : float;  (* X, bytes/s *)
  mutable srtt : float option;
  mutable seq : int;
  mutable in_slowstart : bool;
  mutable pending_echo : (float * float) option;  (* receiver ts, arrival time *)
  mutable nofeedback : Netsim.Engine.handle option;
  obs : Obs.Sink.t;
  scope : Obs.Journal.scope;
  m_sent : Obs.Metrics.Counter.t;
  m_feedback : Obs.Metrics.Counter.t;
  m_nofeedback : Obs.Metrics.Counter.t;
  m_rate : Obs.Metrics.Gauge.t;
}

let jnl t ?severity ev =
  Obs.Sink.event t.obs ~time:(Netsim.Engine.now t.engine) ?severity t.scope ev

let rtt_or_default t = Option.value t.srtt ~default:0.5

let cancel t handle_field =
  match handle_field with
  | Some h ->
      Netsim.Engine.cancel t.engine h;
      None
  | None -> None

let rec send_packet t =
  let now = Netsim.Engine.now t.engine in
  let echo_ts, echo_delay =
    match t.pending_echo with
    | Some (ts, arrived) -> (ts, now -. arrived)
    | None -> (nan, 0.)
  in
  let payload =
    Wire.Data
      {
        conn = t.conn;
        seq = t.seq;
        ts = now;
        rtt = rtt_or_default t;
        echo_ts;
        echo_delay;
      }
  in
  t.seq <- t.seq + 1;
  Obs.Metrics.Counter.inc t.m_sent;
  Obs.Metrics.Gauge.set t.m_rate t.rate;
  let p =
    Netsim.Packet.alloc (Netsim.Engine.arena t.engine)
      ~flow:t.flow ~size:packet_size ~src:(Netsim.Node.id t.src)
      ~dst:(Netsim.Packet.Unicast (Netsim.Node.id t.dst))
      ~created:now payload
  in
  Netsim.Topology.inject t.topo p;
  let delay = float_of_int packet_size /. t.rate in
  ignore (Netsim.Engine.after t.engine ~delay (fun () -> send_packet t))

let rec restart_nofeedback t =
  t.nofeedback <- cancel t t.nofeedback;
  let delay =
    Float.max (4. *. rtt_or_default t) (2. *. float_of_int packet_size /. t.rate)
  in
  t.nofeedback <-
    Some
      (Netsim.Engine.after t.engine ~delay (fun () ->
           t.nofeedback <- None;
           (* Halve the rate in the absence of feedback. *)
           let from_bps = t.rate in
           t.rate <- Float.max min_rate (t.rate /. 2.);
           Obs.Metrics.Counter.inc t.m_nofeedback;
           jnl t ~severity:Obs.Journal.Warn
             (Obs.Journal.Timeout { what = "nofeedback" });
           if t.rate <> from_bps then
             jnl t ~severity:Obs.Journal.Debug
               (Obs.Journal.Rate_change
                  { from_bps; to_bps = t.rate; reason = "nofeedback-halve" });
           restart_nofeedback t))

let on_feedback t ~ts ~echo_ts ~echo_delay ~p ~x_recv =
  let now = Netsim.Engine.now t.engine in
  t.pending_echo <- Some (ts, now);
  (if not (Float.is_nan echo_ts) then begin
     let sample = now -. echo_ts -. echo_delay in
     if sample > 0. then
       t.srtt <-
         (match t.srtt with
         | None -> Some sample
         | Some srtt -> Some ((0.9 *. srtt) +. (0.1 *. sample)))
   end);
  let r = rtt_or_default t in
  (* A zero receive-rate report (the receiver's window saw no packets at
     a very low sending rate) must not pin the rate at the floor: only
     apply the 2·X_recv cap when it is meaningful. *)
  let recv_cap = if x_recv > 0. then 2. *. x_recv else infinity in
  Obs.Metrics.Counter.inc t.m_feedback;
  let from_bps = t.rate in
  (if p > 0. then begin
     if t.in_slowstart then begin
       t.in_slowstart <- false;
       jnl t (Obs.Journal.Slowstart_exit { rate_bps = t.rate })
     end;
     let x_calc = Tcp_model.Padhye.throughput ~s:packet_size ~rtt:r p in
     t.rate <- Float.max (Float.min x_calc recv_cap) min_rate
   end
   else begin
     (* Slowstart: double, bounded by twice the receive rate. *)
     let target = Float.min (2. *. t.rate) recv_cap in
     t.rate <- Float.max (Float.max target initial_rate) min_rate
   end);
  if t.rate <> from_bps then
    jnl t ~severity:Obs.Journal.Debug
      (Obs.Journal.Rate_change
         {
           from_bps;
           to_bps = t.rate;
           reason = (if p > 0. then "equation" else "slowstart-double");
         });
  restart_nofeedback t

let create topo ~conn ~flow ~src ~dst () =
  let obs = Netsim.Engine.obs (Netsim.Topology.engine topo) in
  let metrics = obs.Obs.Sink.metrics in
  let labels = [ ("conn", string_of_int conn) ] in
  let t =
    {
      topo;
      engine = Netsim.Topology.engine topo;
      conn;
      flow;
      src;
      dst;
      running = false;
      rate = initial_rate;
      srtt = None;
      seq = 0;
      in_slowstart = true;
      pending_echo = None;
      nofeedback = None;
      obs;
      scope =
        Obs.Journal.scope ~session:conn ~node:(Netsim.Node.id src) "tfrc.sender";
      m_sent = Obs.Metrics.counter metrics ~labels "tfrc_sender_packets_sent_total";
      m_feedback = Obs.Metrics.counter metrics ~labels "tfrc_sender_feedback_total";
      m_nofeedback =
        Obs.Metrics.counter metrics ~labels "tfrc_sender_nofeedback_timeouts_total";
      m_rate = Obs.Metrics.gauge metrics ~labels "tfrc_sender_rate_bytes_per_s";
    }
  in
  Netsim.Node.attach src (fun p ->
      match p.Netsim.Packet.payload with
      | Wire.Feedback { conn; ts; echo_ts; echo_delay; p; x_recv } when conn = t.conn
        ->
          if t.running then on_feedback t ~ts ~echo_ts ~echo_delay ~p ~x_recv
      | _ -> ());
  t

let start t ~at =
  t.running <- true;
  ignore
    (Netsim.Engine.at t.engine ~time:at (fun () ->
         send_packet t;
         restart_nofeedback t))

let rate_bytes_per_s t = t.rate

let rtt t = t.srtt
