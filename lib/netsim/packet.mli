(** Network packets.

    The payload is an extensible variant: each protocol library adds its
    own constructors (TCP segments, TFMCC data/feedback, ...), keeping the
    simulator core protocol-agnostic.

    Packets come from two allocators with one type:

    - {!make} returns a GC-managed record the caller may keep forever;
    - {!alloc} draws a record from the calling domain's arena ({!Pool}).
      Arena packets are recycled when the simulator is done with them
      (delivery or drop — see DESIGN.md §14 for the ownership rules), so
      holding one past the handler that received it is a use-after-free.

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
(** Fields are mutable so arena slots can be recycled in place, but the
    type is private: all construction goes through {!make}/{!alloc}, and
    only [hops] is meant to be written after construction (by the link
    layer). *)

exception Use_after_free of string
(** Raised by {!guard} (and, in debug mode, by double {!release}) when a
    recycled arena packet is touched. *)

val make :
  flow:int -> size:int -> src:int -> dst:dst -> created:float -> payload -> t
(** Allocates a GC-managed packet with a fresh uid.  [size] must be
    positive.  Safe to retain indefinitely; {!release} on it is a no-op. *)

val alloc :
  flow:int -> size:int -> src:int -> dst:dst -> created:float -> payload -> t
(** Like {!make} but recycles a record from the domain's {!Pool} when one
    is free, falling back to the heap when the arena is exhausted.  The
    packet must be handed to the simulator, which releases it. *)

val release : t -> unit
(** Returns an arena packet to the domain pool.  No-op for {!make}d
    packets.  After release the record must not be touched: [live] is
    cleared, the payload reference is dropped, and in debug mode the
    scalar fields are poisoned and a double release raises
    {!Use_after_free}. *)

val clone : t -> t
(** A copy with a fresh uid (multicast duplication at branch points).
    Clones of arena packets come from the arena (heap on exhaustion);
    clones of heap packets are heap records. *)

val is_live : t -> bool
(** False only for an arena packet that is currently released. *)

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

(** Fixed-capacity per-domain freelist of packet records.  Exposed for
    benchmarks and tests; normal code only goes through {!alloc} and
    {!release}. *)
module Pool : sig
  type pool

  val default_capacity : int

  val create : ?capacity:int -> unit -> pool
  (** A fresh arena with all [capacity] slots free.  Mostly for tests;
      {!alloc} uses the per-domain arena from {!domain}. *)

  val domain : unit -> pool
  (** The calling domain's arena (created on first use). *)

  val reclaim : pool -> unit
  (** Returns every record of the arena to its free list, including the
      ones a dropped engine still held (packets in flight when its run
      ended, which are never released).  Without it those slots leak
      and later engines in the domain fall back to heap records, by an
      amount that depends on what ran there before.  Only call it when
      no simulation that drew from this arena will run again: between
      experiments, as the experiment registry does. *)

  val set_debug : pool -> bool -> unit
  (** Debug mode: poison released records and raise {!Use_after_free} on
      double release.  Off by default. *)

  val debug : pool -> bool

  val capacity : pool -> int

  val free : pool -> int
  (** Slots currently available. *)

  val in_use : pool -> int

  val acquired : pool -> int
  (** Total successful arena acquires (allocs + clones). *)

  val recycled : pool -> int
  (** Total releases that returned a record to the arena. *)

  val exhausted : pool -> int
  (** Heap fallbacks taken because the arena was empty. *)
end
