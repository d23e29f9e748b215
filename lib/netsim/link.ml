type fault_action =
  [ `Pass | `Drop | `Replace of Packet.t | `Duplicate | `Delay of float ]

type t = {
  engine : Engine.t;
  mutable loss : Loss_model.t;
  bandwidth_bps : float;
  mutable delay_s : float;
  queue : Queue_disc.t;
  src : Node.t;
  dst : Node.t;
  mutable busy : bool;
  (* The transmission end the engine schedules from, kept in an
     all-float cell so no float crosses a module boundary (see
     [transmit]). *)
  tx_cell : Event_heap.time_cell;
  (* The transmission-complete callback is allocated once per link, not
     once per packet: the line serializes transmissions, so exactly one
     packet is on the wire head at a time and rides in [tx_pkt]. *)
  mutable tx_pkt : Packet.t;
  mutable complete : unit -> unit;
  (* Arrival callback, allocated once per link: with [Engine.after_pkt]
     an in-flight packet needs no per-packet closure. *)
  mutable arrive_pcb : Packet.t -> int -> unit;
  mutable up : bool;
  mutable sent : int;
  mutable delivered : int;
  (* Per-link conservation ledger (see Check.Invariant): every packet
     entering [forward] is [offered]; it then either pre-drops (down /
     TTL), drops at the queue, or is accepted into the queue+wire
     pipeline; after transmission it either drops to the loss model or
     propagates ([in_flight]) until delivery.  The drop kinds are kept
     apart so the checker can assert exact packet conservation at any
     sample instant. *)
  mutable offered : int;
  mutable in_flight : int;
  mutable drop_queue_n : int;
  mutable drop_loss_n : int;
  mutable drop_down_n : int;
  mutable drop_ttl_n : int;
  mutable fault : (Packet.t -> fault_action) option;
  mutable tracer :
    (time:float ->
    kind:[ `Tx | `Drop_queue | `Drop_loss | `Drop_ttl | `Deliver ] ->
    Packet.t ->
    unit)
    option;
  (* Registry instruments shared by every link of the engine. *)
  cs : Engine.link_counters;
}

let trace t ~kind p =
  match t.tracer with
  | Some f -> f ~time:(Engine.now t.engine) ~kind p
  | None -> ()

let on_arrive t p =
  t.in_flight <- t.in_flight - 1;
  t.delivered <- t.delivered + 1;
  Obs.Metrics.Counter.inc t.cs.m_deliver;
  trace t ~kind:`Deliver p;
  Node.receive t.dst p

let deliver t p =
  if Loss_model.drops_packet t.loss then begin
    t.drop_loss_n <- t.drop_loss_n + 1;
    Obs.Metrics.Counter.inc t.cs.m_drop_loss;
    trace t ~kind:`Drop_loss p;
    Packet.release (Engine.arena t.engine) p
  end
  else begin
    t.in_flight <- t.in_flight + 1;
    (* One scheduled event per in-flight packet, deliberately:
       [set_delay] may change the propagation delay while packets are in
       flight, so arrivals are not FIFO and cannot ride one shared
       pre-scheduled callback.  [after_pkt] keeps it allocation-free. *)
    Engine.after_pkt t.engine ~delay:t.delay_s t.arrive_pcb p
  end

(* Transmit [p] now; [t.complete] (the once-per-link closure around
   [on_complete]) pulls the next queued packet when the line frees up.
   The transmission end is [now +. tx], the sum the engine would form
   from a delay, and [~offset:0.] leaves it bit for bit unchanged. *)
let transmit t (p : Packet.t) =
  t.busy <- true;
  let tx = float_of_int p.size *. 8. /. t.bandwidth_bps in
  let cell = t.tx_cell in
  cell.Event_heap.cell_time <- (Engine.time_cell t.engine).Event_heap.cell_time +. tx;
  t.tx_pkt <- p;
  Engine.at_unit t.engine ~base:cell ~offset:0. t.complete

let on_complete t =
  let p = t.tx_pkt in
  t.tx_pkt <- Packet.dummy;
  t.sent <- t.sent + 1;
  Obs.Metrics.Counter.inc t.cs.m_tx;
  trace t ~kind:`Tx p;
  deliver t p;
  if Queue_disc.is_empty t.queue then t.busy <- false
  else transmit t (Queue_disc.dequeue_exn t.queue)

let create engine ?(loss = Loss_model.none) ~bandwidth_bps ~delay_s ~queue ~src
    ~dst () =
  if bandwidth_bps <= 0. then invalid_arg "Link.create: bandwidth must be positive";
  if delay_s < 0. then invalid_arg "Link.create: negative delay";
  let t = {
    engine;
    loss;
    bandwidth_bps;
    delay_s;
    queue;
    src;
    dst;
    busy = false;
    tx_cell = { Event_heap.cell_time = 0. };
    tx_pkt = Packet.dummy;
    complete = ignore;  (* tied to the record below; see [transmit] *)
    arrive_pcb = (fun (_ : Packet.t) (_ : int) -> ());
    up = true;
    sent = 0;
    delivered = 0;
    offered = 0;
    in_flight = 0;
    drop_queue_n = 0;
    drop_loss_n = 0;
    drop_down_n = 0;
    drop_ttl_n = 0;
    fault = None;
    tracer = None;
    cs = Engine.link_counters engine;
  }
  in
  t.complete <- (fun () -> on_complete t);
  t.arrive_pcb <- (fun p (_ : int) -> on_arrive t p);
  t

let forward t (p : Packet.t) =
  t.offered <- t.offered + 1;
  if not t.up then begin
    t.drop_down_n <- t.drop_down_n + 1;
    Obs.Metrics.Counter.inc t.cs.m_drop_down;
    trace t ~kind:`Drop_loss p;
    Packet.release (Engine.arena t.engine) p
  end
  else if p.hops > Packet.ttl_limit then begin
    (* A routing loop ate the packet: account for it like any other drop
       instead of letting it vanish from all stats. *)
    t.drop_ttl_n <- t.drop_ttl_n + 1;
    Obs.Metrics.Counter.inc t.cs.m_drop_ttl;
    trace t ~kind:`Drop_ttl p;
    Logs.warn (fun m -> m "Link: TTL exceeded, dropping %a" Packet.pp p);
    Packet.release (Engine.arena t.engine) p
  end
  else if t.busy then begin
    if not (Queue_disc.enqueue t.queue p) then begin
      t.drop_queue_n <- t.drop_queue_n + 1;
      Obs.Metrics.Counter.inc t.cs.m_drop_queue;
      trace t ~kind:`Drop_queue p;
      Packet.release (Engine.arena t.engine) p
    end
  end
  else transmit t p

let send t (p : Packet.t) =
  Packet.guard "Link.send" p;
  Packet.set_hops p (p.hops + 1);
  match t.fault with
  | None -> forward t p
  | Some f -> (
      match f p with
      | `Pass -> forward t p
      | `Drop ->
          Obs.Metrics.Counter.inc t.cs.m_drop_loss;
          trace t ~kind:`Drop_loss p;
          Packet.release (Engine.arena t.engine) p
      | `Replace p' ->
          (* The injector handed back a different physical packet: the
             original's arena slot is ours to recycle. *)
          if p' != p then Packet.release (Engine.arena t.engine) p;
          forward t p'
      | `Duplicate ->
          (* Clone before forwarding: [forward] may drop-and-release [p]
             (down link, TTL, full queue), after which it is not
             clonable. *)
          let q = Packet.clone (Engine.arena t.engine) p in
          forward t p;
          forward t q
      | `Delay d -> Engine.after_unit t.engine ~delay:d (fun () -> forward t p))

let src t = t.src

let dst t = t.dst

let bandwidth_bps t = t.bandwidth_bps

let delay_s t = t.delay_s

let set_delay t d =
  if d < 0. then invalid_arg "Link.set_delay: negative delay";
  t.delay_s <- d

let queue t = t.queue

let set_loss t loss = t.loss <- loss

let packets_sent t = t.sent

let packets_delivered t = t.delivered

let packets_offered t = t.offered

let packets_in_flight t = t.in_flight

let drops_queue t = t.drop_queue_n

let drops_loss t = t.drop_loss_n

let drops_down t = t.drop_down_n

let drops_ttl t = t.drop_ttl_n

let busy t = t.busy

let set_tracer t f = t.tracer <- Some f

let set_fault t f = t.fault <- f

let set_up t up = t.up <- up

let is_up t = t.up
