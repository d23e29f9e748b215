let initial_cwnd = 1.
let max_cwnd = 10000.

(* ns-2's "overhead": the upper bound of a uniform random send delay
   that breaks the deterministic phase-locking between ack-clocked
   sources and the bottleneck's service clock. *)
let overhead = 0.001

(* The floats a segment or an ACK writes, in an all-float record: a
   write stores a raw double, where a [mutable float] in the mixed [t]
   would box a fresh float on every one. *)
type floats = {
  mutable cwnd : float;  (* segments *)
  mutable ssthresh : float;
  mutable last_emit : float;  (* keeps jittered sends in order *)
  mutable rtt_sent_at : float;
}

type t = {
  topo : Netsim.Topology.t;
  engine : Netsim.Engine.t;
  clock : Event_heap.time_cell;
  conn : int;
  flow : int;
  src : Netsim.Node.t;
  dst : Netsim.Packet.dst;  (* shared by every data segment *)
  rng : Stats.Rng.t;
  f : floats;
  rto : Rto_estimator.t;
  mutable snd_una : int;  (* lowest unacknowledged seq *)
  mutable snd_nxt : int;  (* next seq to send *)
  mutable dupacks : int;
  mutable in_recovery : bool;
  mutable recover : int;  (* snd_nxt when recovery entered *)
  mutable rtt_seq : int;  (* segment currently being timed; -1 if none *)
  mutable retx_timer : Netsim.Engine.handle option;
  (* Jittered sends waiting for their emit time, oldest first: [emit_len]
     seqs from [emit_head] in the ring [emit_seqs].  Emit times strictly
     increase (see [send_segment]), so the engine fires the emits in the
     order they were scheduled and each pops the ring's oldest seq.  The
     newest emit time sits in [emit_cell], the engine's base for it. *)
  mutable emit_seqs : int array;
  mutable emit_head : int;
  mutable emit_len : int;
  emit_cell : Event_heap.time_cell;
  (* Event callbacks, allocated once per source rather than per segment
     or per ACK. *)
  mutable emit_next : unit -> unit;
  mutable timeout : unit -> unit;
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
    (Obs.Journal.Cwnd_change { from_pkts; to_pkts = t.f.cwnd; reason })

let cancel_timer t =
  match t.retx_timer with
  | Some h ->
      Netsim.Engine.cancel t.engine h;
      t.retx_timer <- None
  | None -> ()

let restart_timer t =
  cancel_timer t;
  let delay = Rto_estimator.rto t.rto in
  t.retx_timer <- Some (Netsim.Engine.after t.engine ~delay t.timeout)

(* Puts data segment [seq] on the wire.  The packet is allocated here,
   at emit time, which fixes its uid and [created]. *)
let emit t seq =
  let p =
    Netsim.Packet.alloc (Netsim.Engine.arena t.engine) ~flow:t.flow ~size:Segment.data_size
      ~src:(Netsim.Node.id t.src) ~dst:t.dst
      ~created:(Netsim.Engine.now t.engine)
      (Segment.Data { conn = t.conn; seq })
  in
  Netsim.Topology.inject t.topo p

(* The ring's capacity is a power of two, so an index wraps with a
   mask. *)
let push_emit t seq =
  let cap = Array.length t.emit_seqs in
  if t.emit_len = cap then begin
    let seqs = Array.make (2 * cap) 0 in
    for i = 0 to cap - 1 do
      seqs.(i) <- t.emit_seqs.((t.emit_head + i) land (cap - 1))
    done;
    t.emit_seqs <- seqs;
    t.emit_head <- 0
  end;
  let mask = Array.length t.emit_seqs - 1 in
  t.emit_seqs.((t.emit_head + t.emit_len) land mask) <- seq;
  t.emit_len <- t.emit_len + 1

let emit_next t () =
  let seq = t.emit_seqs.(t.emit_head) in
  t.emit_head <- (t.emit_head + 1) land (Array.length t.emit_seqs - 1);
  t.emit_len <- t.emit_len - 1;
  emit t seq

let send_segment t seq =
  Obs.Metrics.Counter.inc t.m_sent;
  (* Time one segment at a time, Karn's rule: never a retransmission. *)
  if t.rtt_seq < 0 && seq >= t.snd_nxt then begin
    t.rtt_seq <- seq;
    t.f.rtt_sent_at <- t.clock.Event_heap.cell_time
  end;
  let f = t.f in
  let target = t.clock.Event_heap.cell_time +. Stats.Rng.float t.rng overhead in
  (* Never reorder segments of the same connection: a swap would look
     like out-of-order delivery and trigger spurious dupacks. *)
  let target = if target <= f.last_emit then f.last_emit +. 1e-6 else target in
  f.last_emit <- target;
  t.emit_cell.Event_heap.cell_time <- target;
  push_emit t seq;
  Netsim.Engine.at_unit t.engine ~base:t.emit_cell ~offset:0. t.emit_next

let send_available t =
  let window = int_of_float (Float.min t.f.cwnd max_cwnd) in
  let limit = t.snd_una + Stdlib.max 1 window in
  let sent_any = ref false in
  while t.snd_nxt < limit do
    send_segment t t.snd_nxt;
    t.snd_nxt <- t.snd_nxt + 1;
    sent_any := true
  done;
  if !sent_any && t.retx_timer = None then restart_timer t

let on_timeout t =
  t.retx_timer <- None;
  Obs.Metrics.Counter.inc t.m_timeouts;
  jnl t ~severity:Obs.Journal.Warn (Obs.Journal.Timeout { what = "rto" });
  let f = t.f in
  let from_pkts = f.cwnd in
  f.ssthresh <- Float.max 2. (f.cwnd /. 2.);
  f.cwnd <- 1.;
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
  Obs.Metrics.Counter.inc t.m_retransmits;
  send_segment t t.snd_una;
  t.snd_nxt <- t.snd_una + 1;
  restart_timer t

let fast_retransmit t =
  let f = t.f in
  let from_pkts = f.cwnd in
  f.ssthresh <- Float.max 2. (f.cwnd /. 2.);
  t.in_recovery <- true;
  t.recover <- t.snd_nxt;
  Obs.Metrics.Counter.inc t.m_retransmits;
  t.rtt_seq <- -1;
  send_segment t t.snd_una;
  f.cwnd <- f.ssthresh +. 3.;
  journal_cwnd t ~from_pkts ~reason:"fast-retransmit";
  restart_timer t

let on_new_ack t ack =
  let f = t.f in
  (* RTT sample if the timed segment is covered and was never
     retransmitted (rtt_seq is invalidated on retransmission). *)
  if t.rtt_seq >= 0 && ack > t.rtt_seq then begin
    let sample = t.clock.Event_heap.cell_time -. f.rtt_sent_at in
    if sample > 0. then Rto_estimator.observe t.rto sample;
    t.rtt_seq <- -1
  end;
  t.snd_una <- ack;
  t.dupacks <- 0;
  if t.in_recovery then begin
    (* Reno: deflate to ssthresh on the first new ACK. *)
    t.in_recovery <- false;
    let from_pkts = f.cwnd in
    f.cwnd <- f.ssthresh;
    journal_cwnd t ~from_pkts ~reason:"recovery-exit"
  end
  else if f.cwnd < f.ssthresh then f.cwnd <- f.cwnd +. 1.
  else f.cwnd <- f.cwnd +. (1. /. f.cwnd);
  if f.cwnd > max_cwnd then f.cwnd <- max_cwnd;
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
    t.f.cwnd <- t.f.cwnd +. 1.;
    send_available t
  end

let on_ack t ack =
  if ack > t.snd_una then on_new_ack t ack
  else if ack = t.snd_una && t.snd_nxt > t.snd_una then on_dupack t

let create topo ~conn ~flow ~src ~dst =
  let engine = Netsim.Topology.engine topo in
  let obs = Netsim.Engine.obs engine in
  let metrics = obs.Obs.Sink.metrics in
  let labels = [ ("conn", string_of_int conn) ] in
  let t =
    {
      topo;
      engine;
      clock = Netsim.Engine.time_cell engine;
      conn;
      flow;
      src;
      dst = Netsim.Packet.Unicast (Netsim.Node.id dst);
      rng = Netsim.Engine.split_rng engine;
      f =
        {
          cwnd = initial_cwnd;
          ssthresh = max_cwnd;
          last_emit = neg_infinity;
          rtt_sent_at = 0.;
        };
      rto = Rto_estimator.create ();
      snd_una = 0;
      snd_nxt = 0;
      dupacks = 0;
      in_recovery = false;
      recover = 0;
      rtt_seq = -1;
      retx_timer = None;
      emit_seqs = Array.make 16 0;
      emit_head = 0;
      emit_len = 0;
      emit_cell = { Event_heap.cell_time = 0. };
      emit_next = ignore;
      timeout = ignore;
      obs;
      scope =
        Obs.Journal.scope ~session:conn ~node:(Netsim.Node.id src) "tcp.source";
      m_sent = Obs.Metrics.counter metrics ~labels "tcp_segments_sent_total";
      m_retransmits = Obs.Metrics.counter metrics ~labels "tcp_retransmits_total";
      m_timeouts = Obs.Metrics.counter metrics ~labels "tcp_timeouts_total";
    }
  in
  t.emit_next <- emit_next t;
  t.timeout <- (fun () -> on_timeout t);
  Netsim.Node.attach src (fun p ->
      match p.Netsim.Packet.payload with
      | Segment.Ack { conn; ack } when conn = t.conn -> on_ack t ack
      | _ -> ());
  t

let start t ~at =
  ignore
    (Netsim.Engine.at t.engine ~time:at (fun () ->
         t.f.cwnd <- initial_cwnd;
         send_available t))
