(** Network nodes: endpoints and routers.

    A node holds local packet handlers (protocol agents attach here) and a
    receive hook.  The default hook delivers to local handlers only; the
    topology layer replaces it with routing-aware logic that both forwards
    in-transit packets and delivers local ones. *)

type t

val create : id:int -> t

val id : t -> int

val attach : t -> (Packet.t -> unit) -> unit
(** Registers a local handler.  Every packet delivered locally is passed
    to all handlers (in attachment order); handlers filter by payload. *)

val deliver_local : t -> Packet.t -> unit
(** Passes the packet to the local handlers, bypassing routing. *)

val receive : t -> Packet.t -> unit
(** Entry point used by links when a packet arrives at this node. *)

val set_receive_hook : t -> (Packet.t -> unit) -> unit
(** Replaces the receive behaviour (installed by {!Topology}). *)
