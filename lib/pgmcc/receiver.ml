(* EWMA gain for the per-packet loss indicator. *)
let loss_gain = 0.02

(* Least time between two NAKs from one receiver. *)
let nak_min_interval = 0.25

type t = {
  topo : Netsim.Topology.t;
  engine : Netsim.Engine.t;
  session : int;
  node : Netsim.Node.t;
  sender : Netsim.Node.t;
  rng : Stats.Rng.t;
  mutable joined : bool;
  mutable expected : int;
  mutable synced : bool;
  mutable loss : float;
  mutable is_acker : bool;
  mutable last_ts : float;
  mutable greeted : bool;  (* initial ACK sent *)
  mutable last_nak : float;
}

let node_id t = Netsim.Node.id t.node

let loss_estimate t = t.loss

let send_ack t ~ack_seq =
  let now = Netsim.Engine.now t.engine in
  let payload =
    Wire.Ack
      {
        session = t.session;
        rx_id = node_id t;
        ack_seq;
        ts = now;
        echo_ts = t.last_ts;
        loss = t.loss;
      }
  in
  let p =
    Netsim.Packet.alloc (Netsim.Engine.arena t.engine)
      ~flow:(-1) ~size:Wire.ack_size ~src:(node_id t)
      ~dst:(Netsim.Packet.Unicast (Netsim.Node.id t.sender))
      ~created:now payload
  in
  Netsim.Topology.inject t.topo p

let send_nak t ~lost_seq =
  let now = Netsim.Engine.now t.engine in
  let payload =
    Wire.Nak
      {
        session = t.session;
        rx_id = node_id t;
        lost_seq;
        ts = now;
        echo_ts = t.last_ts;
        loss = t.loss;
      }
  in
  let p =
    Netsim.Packet.alloc (Netsim.Engine.arena t.engine)
      ~flow:(-1) ~size:Wire.nak_size ~src:(node_id t)
      ~dst:(Netsim.Packet.Unicast (Netsim.Node.id t.sender))
      ~created:now payload
  in
  Netsim.Topology.inject t.topo p;
  t.last_nak <- now

let on_data t ~seq ~ts ~acker =
  let now = Netsim.Engine.now t.engine in
  t.last_ts <- ts;
  t.is_acker <- acker = node_id t;
  let lost =
    if not t.synced then begin
      t.synced <- true;
      t.expected <- seq + 1;
      0
    end
    else if seq >= t.expected then begin
      let l = seq - t.expected in
      t.expected <- seq + 1;
      l
    end
    else 0
  in
  (* Smoothed loss fraction: fold in [lost] misses and one hit. *)
  for _ = 1 to lost do
    t.loss <- ((1. -. loss_gain) *. t.loss) +. loss_gain
  done;
  t.loss <- (1. -. loss_gain) *. t.loss;
  if not t.greeted then begin
    (* Initial report, randomly delayed, so the sender can elect a first
       acker. *)
    t.greeted <- true;
    ignore
      (Netsim.Engine.after t.engine
         ~delay:(Stats.Rng.float t.rng 0.2)
         (fun () -> if t.joined then send_ack t ~ack_seq:(t.expected - 1)))
  end;
  if t.is_acker then begin
    (* The acker signals loss immediately (the sender's halving trigger)
       and acks every arrival. *)
    if lost > 0 then send_nak t ~lost_seq:(t.expected - 1);
    send_ack t ~ack_seq:(t.expected - 1)
  end
  else if lost > 0 && now -. t.last_nak >= nak_min_interval then begin
    (* Non-acker loss report, randomly delayed a little to decorrelate
       (stands in for PGMCC's NAK suppression/aggregation). *)
    let seq0 = t.expected - 1 in
    ignore
      (Netsim.Engine.after t.engine
         ~delay:(Stats.Rng.float t.rng 0.05)
         (fun () -> if t.joined then send_nak t ~lost_seq:seq0))
  end

let create topo ~session ~node ~sender =
  let engine = Netsim.Topology.engine topo in
  let t =
    {
      topo;
      engine;
      session;
      node;
      sender;
      rng = Netsim.Engine.split_rng engine;
      joined = false;
      expected = 0;
      synced = false;
      loss = 0.;
      is_acker = false;
      last_ts = nan;
      greeted = false;
      last_nak = neg_infinity;
    }
  in
  Netsim.Node.attach node (fun p ->
      match p.Netsim.Packet.payload with
      | Wire.Data { session; seq; ts; acker; window = _ } when session = t.session
        ->
          if t.joined then on_data t ~seq ~ts ~acker
      | _ -> ());
  t

let join t =
  if not t.joined then begin
    t.joined <- true;
    Netsim.Topology.join t.topo ~group:t.session t.node
  end
