(** Deterministic-simulator environment for the TFMCC protocol core.

    Implements {!Tfmcc_core.Env} on top of [Netsim.Engine] /
    [Netsim.Topology]: simulated time, engine-scheduled timers, packets
    injected into the topology, multicast membership via the topology's
    group tables, and the engine's master RNG / observability sink.

    Messages travel through the simulator {e by value} (as
    [Netsim.Packet.payload] extensions), not as bytes: the simulator
    models on-the-wire size through [Packet.size] while keeping payload
    inspection free, exactly as before the Env refactor, so every golden
    trace digest is preserved.  The byte codec ({!Tfmcc_core.Wire}) is
    exercised by the real-time runtime ([Rt]) and the wire tests.

    The [Sender]/[Receiver]/[Session]/[Adversary]/[Aggregator]
    sub-modules re-export the protocol core under the pre-refactor
    node-based constructor signatures, so simulator call sites read
    unchanged modulo the module path. *)

open Tfmcc_core

type Netsim.Packet.payload +=
  | Data of Wire.data  (** multicast TFMCC data-packet header *)
  | Report of Wire.report  (** unicast receiver report *)

val env : Netsim.Topology.t -> session:int -> Netsim.Node.t -> Env.t
(** The environment of one endpoint: [now]/[after]/[at] delegate to the
    topology's engine, [send] wraps the message in a packet (multicast
    to group [session], or unicast) and injects it, [join]/[leave]
    manage the node's membership of group [session], [split_rng]/[obs]
    come from the engine.  Inbound delivery is separate: attach a node
    handler that feeds [deliver] (the sub-module constructors below do
    this). *)

val corrupt_packet : Stats.Rng.t -> Netsim.Packet.t -> Netsim.Packet.t
(** {!Tfmcc_core.Wire.corrupt_msg} lifted to simulator packets for
    [Netsim.Fault.corrupt]: mangles one field of a TFMCC payload into a
    hostile value; non-TFMCC payloads pass through without consuming
    randomness. *)

module Sender : sig
  include module type of Tfmcc_core.Sender

  val create :
    Netsim.Topology.t ->
    cfg:Config.t ->
    session:int ->
    node:Netsim.Node.t ->
    ?initial_rate:float ->
    unit ->
    t
  (** Builds the node's environment, creates the sender and attaches
      the inbound handler at [node]. *)
end

module Receiver : sig
  include module type of Tfmcc_core.Receiver

  val create :
    Netsim.Topology.t ->
    cfg:Config.t ->
    session:int ->
    node:Netsim.Node.t ->
    sender:Netsim.Node.t ->
    ?report_to:Netsim.Node.t ->
    ?ntp_error:float ->
    unit ->
    t
end

module Session : sig
  include module type of Tfmcc_core.Session

  val create :
    Netsim.Topology.t ->
    ?cfg:Config.t ->
    session:int ->
    sender_node:Netsim.Node.t ->
    receiver_nodes:Netsim.Node.t list ->
    ?clock_offsets:float list ->
    unit ->
    t

  val add_receiver :
    Netsim.Topology.t ->
    t ->
    node:Netsim.Node.t ->
    join_now:bool ->
    unit ->
    Receiver.t
  (** Late join (paper §4.5).  Takes the topology explicitly: the
      session value no longer holds a simulator reference. *)
end

module Adversary : sig
  include module type of Tfmcc_core.Adversary

  val create :
    Netsim.Topology.t ->
    cfg:Config.t ->
    session:int ->
    node:Netsim.Node.t ->
    sender:Netsim.Node.t ->
    strategy:strategy ->
    unit ->
    t
end

module Aggregator : sig
  include module type of Tfmcc_core.Aggregator

  val create :
    Netsim.Topology.t ->
    session:int ->
    node:Netsim.Node.t ->
    parent:Netsim.Node.t ->
    t
end
