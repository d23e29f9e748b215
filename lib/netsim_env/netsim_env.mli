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

    {!backend} hosts TFMCC endpoints on topology nodes: build a session
    with [Tfmcc_core.Session.build], or a single role with its core
    constructor over [backend.env] plus one inbound hook. *)

open Tfmcc_core

type Netsim.Packet.payload +=
  | Data of Wire.data  (** multicast TFMCC data-packet header *)
  | Report of Wire.report  (** unicast receiver report *)

val env : Netsim.Topology.t -> session:int -> Netsim.Node.t -> Env.t
(** The environment of one endpoint: [now]/[after]/[at] delegate to the
    topology's engine, [send] wraps the message in a packet (multicast
    to group [session], or unicast) and injects it, [join]/[leave]
    manage the node's membership of group [session], [split_rng]/[obs]
    come from the engine.  Inbound delivery is separate: {!backend}'s
    hooks attach a node handler. *)

val backend : Netsim.Topology.t -> session:int -> Netsim.Node.t Session.backend
(** Endpoints are topology nodes: [env] is {!env}, and [on_data] /
    [on_report] attach a node handler that passes each local [Data] /
    [Report] payload (data with its packet size) to the hook and
    ignores every other payload. *)

val corrupt_packet : Stats.Rng.t -> Netsim.Packet.t -> Netsim.Packet.t
(** {!Tfmcc_core.Wire.corrupt_msg} lifted to simulator packets for
    [Netsim.Fault.corrupt]: mangles one field of a TFMCC payload into a
    hostile value; non-TFMCC payloads pass through without consuming
    randomness. *)
