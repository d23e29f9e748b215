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

(* Passes every local TFMCC payload, with its on-the-wire packet size,
   to [f]; other payloads are ignored. *)
let attach node f =
  Netsim.Node.attach node (fun p ->
      match msg_of_payload p.Netsim.Packet.payload with
      | Some msg -> f ~size:p.Netsim.Packet.size msg
      | None -> ())

(* Per-packet attaches for the sender/receiver hot paths: dispatch on the
   payload constructor directly, so a delivery re-boxes neither an option
   nor a [Wire.msg]. *)
let attach_receiver node r =
  Netsim.Node.attach node (fun p ->
      match p.Netsim.Packet.payload with
      | Data d -> Tfmcc_core.Receiver.deliver_data r ~size:p.Netsim.Packet.size d
      | _ -> ())

let attach_sender node s =
  Netsim.Node.attach node (fun p ->
      match p.Netsim.Packet.payload with
      | Report r -> Tfmcc_core.Sender.deliver_report s r
      | _ -> ())

let corrupt_packet rng (pkt : Netsim.Packet.t) =
  match msg_of_payload pkt.Netsim.Packet.payload with
  | Some msg ->
      Netsim.Packet.with_payload pkt (payload_of_msg (Wire.corrupt_msg rng msg))
  | None -> pkt

module Sender = struct
  include Tfmcc_core.Sender

  let create topo ~cfg ~session ~node ?initial_rate () =
    let t =
      Tfmcc_core.Sender.create ~env:(env topo ~session node) ~cfg ~session
        ?initial_rate ()
    in
    attach_sender node t;
    t
end

module Receiver = struct
  include Tfmcc_core.Receiver

  let create topo ~cfg ~session ~node ~sender ?report_to ?ntp_error () =
    let t =
      Tfmcc_core.Receiver.create ~env:(env topo ~session node) ~cfg ~session
        ~sender:(Netsim.Node.id sender)
        ?report_to:(Option.map Netsim.Node.id report_to)
        ?ntp_error ()
    in
    attach_receiver node t;
    t
end

module Session = struct
  include Tfmcc_core.Session

  let create topo ?cfg ~session ~sender_node ~receiver_nodes ?clock_offsets ()
      =
    let t =
      Tfmcc_core.Session.create
        ~sender_env:(env topo ~session sender_node)
        ?cfg ~session
        ~receiver_envs:(List.map (env topo ~session) receiver_nodes)
        ?clock_offsets ()
    in
    attach_sender sender_node (sender t);
    (* [Tfmcc_core.Session.create] builds receivers in node-list order. *)
    List.iter2
      (fun node r -> attach_receiver node r)
      receiver_nodes (receivers t);
    t

  let add_receiver topo t ~node ~join_now () =
    let r =
      Tfmcc_core.Session.add_receiver t
        ~env:(env topo ~session:(session_id t) node)
        ~join_now ()
    in
    attach_receiver node r;
    r
end

module Adversary = struct
  include Tfmcc_core.Adversary

  let create topo ~cfg ~session ~node ~sender ~strategy () =
    let t =
      Tfmcc_core.Adversary.create ~env:(env topo ~session node) ~cfg ~session
        ~sender:(Netsim.Node.id sender) ~strategy ()
    in
    attach node (fun ~size:_ msg -> deliver t msg);
    t
end

module Aggregator = struct
  include Tfmcc_core.Aggregator

  let create topo ~session ~node ~parent =
    let t =
      Tfmcc_core.Aggregator.create ~env:(env topo ~session node) ~session
        ~parent:(Netsim.Node.id parent)
    in
    attach node (fun ~size:_ msg -> deliver t msg);
    t
end
