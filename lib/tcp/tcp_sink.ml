module Int_set = Set.Make (Int)

(* The accounting tag on ACKs; no experiment monitor watches it. *)
let ack_flow = -1

type t = {
  topo : Netsim.Topology.t;
  engine : Netsim.Engine.t;
  conn : int;
  node : Netsim.Node.t;
  mutable next_expected : int;
  mutable buffered : Int_set.t;  (* received above the hole *)
  mutable received : int;
  (* The last ACK's destination, reused while the data keeps coming from
     the same node (always, for one connection), so an ACK builds no
     [Unicast]. *)
  mutable ack_dst : Netsim.Packet.dst;
}

let advance t =
  while Int_set.mem t.next_expected t.buffered do
    t.buffered <- Int_set.remove t.next_expected t.buffered;
    t.next_expected <- t.next_expected + 1
  done

let send_ack t ~to_node =
  let dst =
    match t.ack_dst with
    | Netsim.Packet.Unicast d when d = to_node -> t.ack_dst
    | _ ->
        let dst = Netsim.Packet.Unicast to_node in
        t.ack_dst <- dst;
        dst
  in
  let payload = Segment.Ack { conn = t.conn; ack = t.next_expected } in
  let p =
    Netsim.Packet.alloc (Netsim.Engine.arena t.engine)
      ~flow:ack_flow ~size:Segment.ack_size
      ~src:(Netsim.Node.id t.node)
      ~dst
      ~created:(Netsim.Engine.now t.engine)
      payload
  in
  Netsim.Topology.inject t.topo p

let on_data t (p : Netsim.Packet.t) seq =
  t.received <- t.received + 1;
  if seq = t.next_expected then begin
    t.next_expected <- t.next_expected + 1;
    advance t
  end
  else if seq > t.next_expected then begin
    t.buffered <- Int_set.add seq t.buffered
  end;
  (* else: duplicate of an already-delivered segment; ack anyway *)
  send_ack t ~to_node:p.src

let create topo ~conn ~node =
  let t =
    {
      topo;
      engine = Netsim.Topology.engine topo;
      conn;
      node;
      next_expected = 0;
      buffered = Int_set.empty;
      received = 0;
      ack_dst = Netsim.Packet.Unicast (-1);
    }
  in
  Netsim.Node.attach node (fun p ->
      match p.Netsim.Packet.payload with
      | Segment.Data { conn; seq } when conn = t.conn -> on_data t p seq
      | _ -> ());
  t

let next_expected t = t.next_expected

let segments_received t = t.received
