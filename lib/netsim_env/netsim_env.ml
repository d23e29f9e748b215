open Tfmcc_core

type Netsim.Packet.payload += Data of Wire.data | Report of Wire.report

let payload_of_msg = function
  | Wire.Data d -> Data d
  | Wire.Report r -> Report r

let msg_of_payload = function
  | Data d -> Some (Wire.Data d)
  | Report r -> Some (Wire.Report r)
  | _ -> None

let env topo ~session node =
  let eng = Netsim.Topology.engine topo in
  let id = Netsim.Node.id node in
  let timer h = { Env.cancel = (fun () -> Netsim.Engine.cancel eng h) } in
  (* Shared by every multicast send of this endpoint: the constructor is
     immutable, so allocating it per packet would be pure garbage. *)
  let group_dst = Netsim.Packet.Multicast session in
  {
    Env.id;
    clock = Netsim.Engine.time_cell eng;
    after = (fun ~delay f -> timer (Netsim.Engine.after eng ~delay f));
    after_unit = (fun ~delay f -> Netsim.Engine.after_unit eng ~delay f);
    at = (fun ~time f -> timer (Netsim.Engine.at eng ~time f));
    send =
      (fun ~dest ~flow ~size msg ->
        let dst =
          match dest with
          | Env.To_group -> group_dst
          | Env.To_node n -> Netsim.Packet.Unicast n
        in
        Netsim.Topology.inject topo
          (Netsim.Packet.alloc (Netsim.Engine.arena eng) ~flow ~size ~src:id ~dst
             ~created:(Netsim.Engine.now eng)
             (payload_of_msg msg)));
    join = (fun () -> Netsim.Topology.join topo ~group:session node);
    leave = (fun () -> Netsim.Topology.leave topo ~group:session node);
    split_rng = (fun () -> Netsim.Engine.split_rng eng);
    obs = Netsim.Engine.obs eng;
  }

(* Node handlers dispatch on the payload constructor directly, so a
   delivery re-boxes neither an option nor a [Wire.msg]. *)
let backend topo ~session =
  {
    Session.env = env topo ~session;
    on_data =
      (fun node f ->
        Netsim.Node.attach node (fun p ->
            match p.Netsim.Packet.payload with
            | Data d -> f ~size:p.Netsim.Packet.size d
            | _ -> ()));
    on_report =
      (fun node f ->
        Netsim.Node.attach node (fun p ->
            match p.Netsim.Packet.payload with Report r -> f r | _ -> ()));
  }

let corrupt_packet rng (pkt : Netsim.Packet.t) =
  match msg_of_payload pkt.Netsim.Packet.payload with
  | Some msg ->
      Netsim.Packet.with_payload pkt (payload_of_msg (Wire.corrupt_msg rng msg))
  | None -> pkt
