type t = {
  topo : Netsim.Topology.t;
  engine : Netsim.Engine.t;
  conn : int;
  flow : int;
  src : Netsim.Node.t;
  dst : Netsim.Node.t;
  rng : Stats.Rng.t;
  mutable rate : float;
  mutable srtt : float option;
  mutable seq : int;
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

let min_rate = float_of_int Wire.data_size /. 64.

(* Bytes/s before the first feedback: one packet a second. *)
let initial_rate = float_of_int Wire.data_size

let rtt_or_default t = Option.value t.srtt ~default:0.5

let cancel t h =
  match h with
  | Some hd ->
      Netsim.Engine.cancel t.engine hd;
      None
  | None -> None

let rec send_packet t =
  let now = Netsim.Engine.now t.engine in
  let payload =
    Wire.Data { conn = t.conn; seq = t.seq; ts = now; rtt = rtt_or_default t }
  in
  t.seq <- t.seq + 1;
  Obs.Metrics.Counter.inc t.m_sent;
  Obs.Metrics.Gauge.set t.m_rate t.rate;
  let p =
    Netsim.Packet.alloc (Netsim.Engine.arena t.engine) ~flow:t.flow ~size:Wire.data_size
      ~src:(Netsim.Node.id t.src)
      ~dst:(Netsim.Packet.Unicast (Netsim.Node.id t.dst))
      ~created:now payload
  in
  Netsim.Topology.inject t.topo p;
  (* Pacing jitter, as for the other rate-based senders. *)
  let jitter = 0.75 +. (0.5 *. Stats.Rng.uniform t.rng) in
  let delay = jitter *. float_of_int Wire.data_size /. t.rate in
  Netsim.Engine.after_unit t.engine ~delay (fun () -> send_packet t)

let rec restart_nofeedback t =
  t.nofeedback <- cancel t t.nofeedback;
  let delay = Float.max (4. *. rtt_or_default t) (2. *. float_of_int Wire.data_size /. t.rate) in
  t.nofeedback <-
    Some
      (Netsim.Engine.after t.engine ~delay (fun () ->
           t.nofeedback <- None;
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

let on_feedback t ~ts:_ ~echo_ts ~echo_delay ~rate =
  let now = Netsim.Engine.now t.engine in
  (if not (Float.is_nan echo_ts) then begin
     let sample = now -. echo_ts -. echo_delay in
     if sample > 0. then
       t.srtt <-
         (match t.srtt with
         | None -> Some sample
         | Some srtt -> Some ((0.9 *. srtt) +. (0.1 *. sample)))
   end);
  Obs.Metrics.Counter.inc t.m_feedback;
  if rate > 0. then begin
    let from_bps = t.rate in
    t.rate <- Float.max min_rate rate;
    if t.rate <> from_bps then
      jnl t ~severity:Obs.Journal.Debug
        (Obs.Journal.Rate_change
           { from_bps; to_bps = t.rate; reason = "receiver-rate" })
  end;
  restart_nofeedback t

let create topo ~conn ~flow ~src ~dst () =
  let engine = Netsim.Topology.engine topo in
  let obs = Netsim.Engine.obs engine in
  let metrics = obs.Obs.Sink.metrics in
  let labels = [ ("conn", string_of_int conn) ] in
  let t =
    {
      topo;
      engine;
      conn;
      flow;
      src;
      dst;
      rng = Netsim.Engine.split_rng engine;
      rate = initial_rate;
      srtt = None;
      seq = 0;
      nofeedback = None;
      obs;
      scope =
        Obs.Journal.scope ~session:conn ~node:(Netsim.Node.id src) "tear.sender";
      m_sent = Obs.Metrics.counter metrics ~labels "tear_sender_packets_sent_total";
      m_feedback = Obs.Metrics.counter metrics ~labels "tear_sender_feedback_total";
      m_nofeedback =
        Obs.Metrics.counter metrics ~labels "tear_sender_nofeedback_timeouts_total";
      m_rate = Obs.Metrics.gauge metrics ~labels "tear_sender_rate_bytes_per_s";
    }
  in
  Netsim.Node.attach src (fun p ->
      match p.Netsim.Packet.payload with
      | Wire.Feedback { conn; ts; echo_ts; echo_delay; rate } when conn = t.conn
        ->
          on_feedback t ~ts ~echo_ts ~echo_delay ~rate
      | _ -> ());
  t

let start t ~at =
  ignore
    (Netsim.Engine.at t.engine ~time:at (fun () ->
         send_packet t;
         restart_nofeedback t))

let rate_bytes_per_s t = t.rate

let rtt t = t.srtt
