(* The accounting tag on feedback packets; no experiment monitor
   watches it. *)
let feedback_flow = -1

type t = {
  topo : Netsim.Topology.t;
  engine : Netsim.Engine.t;
  conn : int;
  node : Netsim.Node.t;
  sender : Netsim.Node.t;
  history : Loss_history.t;
  meter : Rate_meter.t;
  mutable sender_rtt : float;  (* sender's estimate from data packets *)
  mutable last_data_ts : float;
  mutable last_data_arrival : float;
  mutable have_data : bool;
  mutable fb_timer : Netsim.Engine.handle option;
  m_received : Obs.Metrics.Counter.t;
  m_feedback : Obs.Metrics.Counter.t;
}

let send_feedback t =
  let now = Netsim.Engine.now t.engine in
  if t.have_data then begin
    let payload =
      Wire.Feedback
        {
          conn = t.conn;
          ts = now;
          echo_ts = t.last_data_ts;
          echo_delay = now -. t.last_data_arrival;
          p = Loss_history.loss_event_rate t.history;
          x_recv = Rate_meter.rate_bytes_per_s t.meter;
        }
    in
    let p =
      Netsim.Packet.alloc (Netsim.Engine.arena t.engine)
        ~flow:feedback_flow ~size:Wire.feedback_size
        ~src:(Netsim.Node.id t.node)
        ~dst:(Netsim.Packet.Unicast (Netsim.Node.id t.sender))
        ~created:now payload
    in
    Netsim.Topology.inject t.topo p;
    Obs.Metrics.Counter.inc t.m_feedback
  end

let rec schedule_feedback t =
  let delay = Float.max 1e-3 t.sender_rtt in
  t.fb_timer <-
    Some
      (Netsim.Engine.after t.engine ~delay (fun () ->
           send_feedback t;
           schedule_feedback t))

let on_data t ~seq ~ts ~rtt ~size =
  Obs.Metrics.Counter.inc t.m_received;
  t.have_data <- true;
  t.last_data_ts <- ts;
  t.last_data_arrival <- Netsim.Engine.now t.engine;
  t.sender_rtt <- rtt;
  (Rate_meter.window t.meter).seconds <- Float.max 0.5 (4. *. rtt);
  Rate_meter.record t.meter ~bytes:size;
  Loss_history.on_packet t.history ~seq;
  if t.fb_timer = None then begin
    (* First packet: give immediate feedback, then once per RTT. *)
    send_feedback t;
    schedule_feedback t
  end

let create topo ~conn ~node ~sender =
  let engine = Netsim.Topology.engine topo in
  let metrics = (Netsim.Engine.obs engine).Obs.Sink.metrics in
  let labels = [ ("conn", string_of_int conn) ] in
  let rec t =
    lazy
      {
        topo;
        engine;
        conn;
        node;
        sender;
        history =
          Loss_history.create ~clock:(Netsim.Engine.time_cell engine)
            ~rtt:(fun () -> (Lazy.force t).sender_rtt)
            ~first_interval:(fun () ->
              let self = Lazy.force t in
              (* App. B seeding: half the receive rate at this first
                 loss, through the inverse equation. *)
              let rate_at_loss = Rate_meter.rate_bytes_per_s self.meter in
              if rate_at_loss > 0. then
                Some
                  (Tcp_model.Mathis.initial_loss_interval ~s:Wire.data_size
                     ~rtt:(Float.max 1e-3 self.sender_rtt)
                     ~rate:(rate_at_loss /. 2.))
              else None)
            ();
        meter = Rate_meter.create ~clock:(Netsim.Engine.time_cell engine) ~window:2. ();
        sender_rtt = 0.5;
        last_data_ts = nan;
        last_data_arrival = nan;
        have_data = false;
        fb_timer = None;
        m_received =
          Obs.Metrics.counter metrics ~labels
            "tfrc_receiver_packets_received_total";
        m_feedback =
          Obs.Metrics.counter metrics ~labels "tfrc_receiver_feedback_total";
      }
  in
  let t = Lazy.force t in
  Netsim.Node.attach node (fun p ->
      match p.Netsim.Packet.payload with
      | Wire.Data { conn; seq; ts; rtt; _ } when conn = t.conn ->
          on_data t ~seq ~ts ~rtt ~size:p.Netsim.Packet.size
      | _ -> ());
  t

let loss_event_rate t = Loss_history.loss_event_rate t.history

