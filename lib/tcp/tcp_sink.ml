module Int_set = Set.Make (Int)

type t = {
  topo : Netsim.Topology.t;
  engine : Netsim.Engine.t;
  conn : int;
  node : Netsim.Node.t;
  ack_flow : int;
  mutable next_expected : int;
  mutable buffered : Int_set.t;  (* received above the hole *)
  mutable received : int;
  mutable out_of_order : int;
}

let advance t =
  while Int_set.mem t.next_expected t.buffered do
    t.buffered <- Int_set.remove t.next_expected t.buffered;
    t.next_expected <- t.next_expected + 1
  done

let send_ack t ~to_node =
  let payload = Segment.Ack { conn = t.conn; ack = t.next_expected } in
  let p =
    Netsim.Packet.alloc ~flow:t.ack_flow ~size:Segment.ack_size
      ~src:(Netsim.Node.id t.node)
      ~dst:(Netsim.Packet.Unicast to_node)
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
    if not (Int_set.mem seq t.buffered) then begin
      t.buffered <- Int_set.add seq t.buffered;
      t.out_of_order <- t.out_of_order + 1
    end
  end;
  (* else: duplicate of an already-delivered segment; ack anyway *)
  send_ack t ~to_node:p.src

let create topo ~conn ~node ?(ack_flow = -1) () =
  let t =
    {
      topo;
      engine = Netsim.Topology.engine topo;
      conn;
      node;
      ack_flow;
      next_expected = 0;
      buffered = Int_set.empty;
      received = 0;
      out_of_order = 0;
    }
  in
  Netsim.Node.attach node (fun p ->
      match p.Netsim.Packet.payload with
      | Segment.Data { conn; seq } when conn = t.conn -> on_data t p seq
      | _ -> ());
  t

let next_expected t = t.next_expected

let segments_received t = t.received

let out_of_order t = t.out_of_order
