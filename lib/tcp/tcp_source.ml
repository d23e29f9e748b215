type t = {
  topo : Netsim.Topology.t;
  engine : Netsim.Engine.t;
  conn : int;
  flow : int;
  src : Netsim.Node.t;
  dst : Netsim.Node.t;
  segment_size : int;
  max_cwnd : float;
  initial_cwnd : float;
  overhead : float;
  rng : Stats.Rng.t;
  mutable last_emit : float;  (* keeps jittered sends in order *)
  rto : Rto_estimator.t;
  mutable running : bool;
  mutable cwnd : float;  (* segments *)
  mutable ssthresh : float;
  mutable snd_una : int;  (* lowest unacknowledged seq *)
  mutable snd_nxt : int;  (* next seq to send *)
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recover : int;  (* snd_nxt when recovery entered *)
  mutable rtt_seq : int;  (* segment currently being timed; -1 if none *)
  mutable rtt_sent_at : float;
  mutable retx_timer : Netsim.Engine.handle option;
  mutable retransmits : int;
  mutable timeouts : int;
  obs : Obs.Sink.t;
  scope : Obs.Journal.scope;
  m_sent : Obs.Metrics.Counter.t;
  m_retransmits : Obs.Metrics.Counter.t;
  m_timeouts : Obs.Metrics.Counter.t;
}

let jnl t ?severity ev =
  Obs.Sink.event t.obs ~time:(Netsim.Engine.now t.engine) ?severity t.scope ev

let journal_cwnd t ~from_pkts ~reason =
  jnl t ~severity:Obs.Journal.Debug
    (Obs.Journal.Cwnd_change { from_pkts; to_pkts = t.cwnd; reason })

let cancel_timer t =
  match t.retx_timer with
  | Some h ->
      Netsim.Engine.cancel t.engine h;
      t.retx_timer <- None
  | None -> ()

let rec restart_timer t =
  cancel_timer t;
  let delay = Rto_estimator.rto t.rto in
  t.retx_timer <- Some (Netsim.Engine.after t.engine ~delay (fun () -> on_timeout t))

and send_segment t seq =
  Obs.Metrics.Counter.inc t.m_sent;
  (* Time one segment at a time, Karn's rule: never a retransmission. *)
  if t.rtt_seq < 0 && seq >= t.snd_nxt then begin
    t.rtt_seq <- seq;
    t.rtt_sent_at <- Netsim.Engine.now t.engine
  end;
  (* ns-2's "overhead": a small random send delay that breaks the
     deterministic phase-locking between ack-clocked sources and the
     bottleneck's service clock. *)
  let emit () =
    let payload = Segment.Data { conn = t.conn; seq } in
    let p =
      Netsim.Packet.alloc ~flow:t.flow ~size:t.segment_size
        ~src:(Netsim.Node.id t.src)
        ~dst:(Netsim.Packet.Unicast (Netsim.Node.id t.dst))
        ~created:(Netsim.Engine.now t.engine)
        payload
    in
    Netsim.Topology.inject t.topo p
  in
  if t.overhead <= 0. then emit ()
  else begin
    let now = Netsim.Engine.now t.engine in
    let target = now +. Stats.Rng.float t.rng t.overhead in
    (* Never reorder segments of the same connection: a swap would look
       like out-of-order delivery and trigger spurious dupacks. *)
    let target = if target <= t.last_emit then t.last_emit +. 1e-6 else target in
    t.last_emit <- target;
    Netsim.Engine.at_unit t.engine ~base:Event_heap.time_zero ~offset:target emit
  end

and send_available t =
  if t.running then begin
    let window = int_of_float (Float.min t.cwnd t.max_cwnd) in
    let limit = t.snd_una + Stdlib.max 1 window in
    let sent_any = ref false in
    while t.snd_nxt < limit do
      send_segment t t.snd_nxt;
      t.snd_nxt <- t.snd_nxt + 1;
      sent_any := true
    done;
    if !sent_any && t.retx_timer = None then restart_timer t
  end

and on_timeout t =
  t.retx_timer <- None;
  if t.running then begin
    t.timeouts <- t.timeouts + 1;
    Obs.Metrics.Counter.inc t.m_timeouts;
    jnl t ~severity:Obs.Journal.Warn (Obs.Journal.Timeout { what = "rto" });
    let from_pkts = t.cwnd in
    t.ssthresh <- Float.max 2. (t.cwnd /. 2.);
    t.cwnd <- 1.;
    journal_cwnd t ~from_pkts ~reason:"rto";
    t.dupacks <- 0;
    t.in_recovery <- false;
    t.rtt_seq <- -1;
    Rto_estimator.backoff t.rto;
    (* RFC 2582 "bugfix": dupacks for data sent before this timeout must
       not trigger fast retransmit (they would re-inflate the window over
       the rewound snd_nxt and burst thousands of segments). *)
    t.recover <- t.snd_nxt;
    (* Go-back-N from the first hole. *)
    t.snd_nxt <- t.snd_una;
    t.retransmits <- t.retransmits + 1;
    Obs.Metrics.Counter.inc t.m_retransmits;
    send_segment t t.snd_una;
    t.snd_nxt <- t.snd_una + 1;
    restart_timer t
  end

let fast_retransmit t =
  let from_pkts = t.cwnd in
  t.ssthresh <- Float.max 2. (t.cwnd /. 2.);
  t.in_recovery <- true;
  t.recover <- t.snd_nxt;
  t.retransmits <- t.retransmits + 1;
  Obs.Metrics.Counter.inc t.m_retransmits;
  t.rtt_seq <- -1;
  send_segment t t.snd_una;
  t.cwnd <- t.ssthresh +. 3.;
  journal_cwnd t ~from_pkts ~reason:"fast-retransmit";
  restart_timer t

let on_new_ack t ack =
  (* RTT sample if the timed segment is covered and was never
     retransmitted (rtt_seq is invalidated on retransmission). *)
  if t.rtt_seq >= 0 && ack > t.rtt_seq then begin
    let sample = Netsim.Engine.now t.engine -. t.rtt_sent_at in
    if sample > 0. then Rto_estimator.observe t.rto sample;
    t.rtt_seq <- -1
  end;
  t.snd_una <- ack;
  t.dupacks <- 0;
  if t.in_recovery then begin
    (* Reno: deflate to ssthresh on the first new ACK. *)
    t.in_recovery <- false;
    let from_pkts = t.cwnd in
    t.cwnd <- t.ssthresh;
    journal_cwnd t ~from_pkts ~reason:"recovery-exit"
  end
  else if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd +. 1.
  else t.cwnd <- t.cwnd +. (1. /. t.cwnd);
  if t.cwnd > t.max_cwnd then t.cwnd <- t.max_cwnd;
  if t.snd_nxt > t.snd_una then restart_timer t else cancel_timer t;
  send_available t

let on_dupack t =
  t.dupacks <- t.dupacks + 1;
  if (not t.in_recovery) && t.dupacks = 3 then begin
    (* RFC 2582 bugfix: only data sent after the last recovery episode
       may trigger a new fast retransmit. *)
    if t.snd_una > t.recover then begin
      fast_retransmit t;
      send_available t
    end
  end
  else if t.in_recovery then begin
    (* Window inflation: each further dupack signals a departed packet. *)
    t.cwnd <- t.cwnd +. 1.;
    send_available t
  end

let on_ack t ack =
  if t.running then begin
    if ack > t.snd_una then on_new_ack t ack
    else if ack = t.snd_una && t.snd_nxt > t.snd_una then on_dupack t
  end

let create topo ~conn ~flow ~src ~dst ?(segment_size = Segment.data_size)
    ?(initial_cwnd = 1.) ?(max_cwnd = 10000.) ?(overhead = 0.001) () =
  if segment_size <= 0 then invalid_arg "Tcp_source.create: segment size";
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
      segment_size;
      max_cwnd;
      initial_cwnd;
      overhead;
      rng = Netsim.Engine.split_rng (Netsim.Topology.engine topo);
      last_emit = neg_infinity;
      rto = Rto_estimator.create ();
      running = false;
      cwnd = initial_cwnd;
      ssthresh = max_cwnd;
      snd_una = 0;
      snd_nxt = 0;
      dupacks = 0;
      in_recovery = false;
      recover = 0;
      rtt_seq = -1;
      rtt_sent_at = 0.;
      retx_timer = None;
      retransmits = 0;
      timeouts = 0;
      obs;
      scope =
        Obs.Journal.scope ~session:conn ~node:(Netsim.Node.id src) "tcp.source";
      m_sent = Obs.Metrics.counter metrics ~labels "tcp_segments_sent_total";
      m_retransmits = Obs.Metrics.counter metrics ~labels "tcp_retransmits_total";
      m_timeouts = Obs.Metrics.counter metrics ~labels "tcp_timeouts_total";
    }
  in
  Netsim.Node.attach src (fun p ->
      match p.Netsim.Packet.payload with
      | Segment.Ack { conn; ack } when conn = t.conn -> on_ack t ack
      | _ -> ());
  t

let start t ~at =
  t.running <- true;
  ignore
    (Netsim.Engine.at t.engine ~time:at (fun () ->
         t.cwnd <- t.initial_cwnd;
         send_available t))

let stop t =
  t.running <- false;
  cancel_timer t

let cwnd t = t.cwnd

let ssthresh t = t.ssthresh

let in_recovery t = t.in_recovery

let retransmits t = t.retransmits

let timeouts t = t.timeouts

let srtt t = Rto_estimator.srtt t.rto

let highest_ack t = t.snd_una
