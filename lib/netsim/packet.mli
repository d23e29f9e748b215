(** Network packets.

    The payload is an extensible variant: each protocol library adds its
    own constructors (TCP segments, TFMCC data/feedback, ...), keeping the
    simulator core protocol-agnostic.

    Packets come from two allocators with one type:

    - {!make} returns a GC-managed record the caller may keep forever;
    - {!alloc} draws a record from an engine's {!arena}.  Arena packets
      are recycled when the simulator is done with them (delivery or
      drop — see DESIGN.md §14 for the ownership rules), so holding one
      past the handler that received it is a use-after-free.

    Handlers that need to retain data from a delivered packet must copy
    the fields out (or {!clone} it) before returning. *)

type payload = ..
(** Protocol payloads.  Extended by [Tcp], [Tfrc] and [Tfmcc]. *)

type payload += Raw of int  (** Opaque filler traffic with a tag. *)

type dst =
  | Unicast of int  (** destination node id *)
  | Multicast of int  (** multicast group id *)

type t = private {
  mutable uid : int;  (** globally unique per packet copy *)
  mutable flow : int;  (** accounting tag; monitors aggregate by flow *)
  mutable size : int;  (** bytes on the wire, headers included *)
  mutable src : int;  (** originating node id *)
  mutable dst : dst;
  mutable payload : payload;
  mutable created : float;  (** send time at the origin *)
  mutable hops : int;  (** incremented per link traversal; TTL guard *)
  pooled : bool;  (** came from an arena; {!release} recycles it *)
  mutable live : bool;  (** false between release and the next acquire *)
}
(** Fields are mutable so arena records can be recycled in place, but the
    type is private: all construction goes through {!make}/{!alloc}, and
    only [hops] is meant to be written after construction (by the link
    layer). *)

type arena
(** A free list of released packet records.  Each [Engine.t] owns one
    ([Engine.arena]); it starts empty, grows to the engine's peak of
    live packets, and is garbage-collected with the engine. *)

val arena : unit -> arena
(** An empty arena.  Normal code uses its engine's. *)

exception Use_after_free of string
(** Raised by {!guard} and by a second {!release} when a released arena
    packet is touched. *)

val make :
  flow:int -> size:int -> src:int -> dst:dst -> created:float -> payload -> t
(** Allocates a GC-managed packet with a fresh uid.  [size] must be
    positive.  Safe to retain indefinitely; {!release} on it is a no-op. *)

val alloc :
  arena -> flow:int -> size:int -> src:int -> dst:dst -> created:float -> payload -> t
(** Like {!make} but recycles a released record of the arena when it has
    one.  The packet must be handed to the simulator, which releases it. *)

val release : arena -> t -> unit
(** Returns an arena packet to the arena.  No-op for {!make}d packets.
    After release the record must not be touched: [live] is cleared and
    the payload reference is dropped.
    @raise Use_after_free on a packet already released. *)

val clone : arena -> t -> t
(** A copy with a fresh uid (multicast duplication at branch points).
    Clones of arena packets come from the arena; clones of heap packets
    are heap records. *)

val guard : string -> t -> unit
(** [guard ctx p] raises {!Use_after_free} if [p] is a released arena
    packet.  Called on the simulator entry points ([Link.send],
    [Topology.inject]); cheap enough to be always on. *)

val set_hops : t -> int -> unit
(** Link-layer TTL accounting ([hops] is the only field callers mutate). *)

val with_payload : t -> payload -> t
(** A heap copy with the given payload and the {e same} uid — the
    "same physical packet, mangled contents" operation used by fault
    injectors and wire-level corruption. *)

val ttl_limit : int
(** Packets are dropped after this many hops (routing-loop guard). *)

val dummy : t
(** Sentinel for empty data-structure slots (e.g. queue rings).  Looks
    like a released arena packet, so sending it trips {!guard}. *)

val pp : Format.formatter -> t -> unit
