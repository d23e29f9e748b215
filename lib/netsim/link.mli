(** Unidirectional links: finite bandwidth, propagation delay, an egress
    queue, and an optional stochastic loss model.

    Transmission model (ns-2 style): a packet occupies the line for
    [size * 8 / bandwidth] seconds; packets arriving while the line is
    busy wait in the egress queue (or are dropped by the queue
    discipline); after transmission the packet propagates for [delay]
    seconds, is subjected to the loss model, and is handed to the
    destination node. *)

type t

(** What a fault injector may do with a packet entering the link (see
    {!set_fault} and {!Fault}): pass it through, drop it, substitute a
    (corrupted) replacement, transmit it twice, or hold it back for some
    extra seconds so later packets overtake it (reordering). *)
type fault_action =
  [ `Pass | `Drop | `Replace of Packet.t | `Duplicate | `Delay of float ]

val create :
  Engine.t ->
  ?loss:Loss_model.t ->
  bandwidth_bps:float ->
  delay_s:float ->
  queue:Queue_disc.t ->
  src:Node.t ->
  dst:Node.t ->
  unit ->
  t

val send : t -> Packet.t -> unit
(** Hands a packet to the link for transmission (may be queued/dropped). *)

val src : t -> Node.t

val dst : t -> Node.t

val bandwidth_bps : t -> float

val delay_s : t -> float

val set_delay : t -> float -> unit
(** Changes the propagation delay at runtime (experiments that alter a
    receiver's RTT mid-run).  Packets already in flight keep the delay
    they departed with. *)

val queue : t -> Queue_disc.t

val set_loss : t -> Loss_model.t -> unit
(** Replace the loss model at runtime (experiments change loss rates
    mid-run). *)

val set_up : t -> bool -> unit
(** Takes the link down (every packet handed to it is dropped and counted
    under {!drops_down}) or back up.  Models path failure without
    touching routing state. *)

val is_up : t -> bool

val set_fault : t -> (Packet.t -> fault_action) option -> unit
(** Installs (or with [None] removes) the fault injector consulted for
    every packet handed to {!send}.  [`Drop]s count in the registry's
    [netsim_link_drop_loss_total].  At most one injector is installed
    at a time — {!Fault} multiplexes several behaviours through one
    hook. *)

val packets_sent : t -> int
(** Packets fully transmitted onto the wire (before stochastic loss). *)

val packets_delivered : t -> int

(** {2 Conservation ledger}

    Exact per-link accounting used by the runtime invariant checker
    ({!Check.Invariant}): at any sample instant, a packet handed to the
    link by {!send} and passed (or produced) by the fault hook is in
    exactly one of the buckets below, so both identities hold:

    {ul
    {- [packets_offered = drops_down + drops_ttl + drops_queue
        + queue length + (1 if busy) + packets_sent]}
    {- [packets_sent = drops_loss + packets_in_flight
        + packets_delivered]}} *)

val packets_offered : t -> int
(** Packets that entered the link pipeline (post fault hook — a
    duplicated packet counts twice, a fault-dropped one not at all). *)

val packets_in_flight : t -> int
(** Transmitted packets still propagating (past the loss model, arrival
    not yet delivered). *)

val drops_queue : t -> int
(** Dropped by the queue discipline at enqueue. *)

val drops_loss : t -> int
(** Dropped by the stochastic loss model after transmission. *)

val drops_down : t -> int
(** Dropped because the link was administratively down. *)

val drops_ttl : t -> int
(** Dropped by the TTL guard (routing loop). *)

val busy : t -> bool

val set_tracer :
  t ->
  (time:float ->
  kind:[ `Tx | `Drop_queue | `Drop_loss | `Drop_ttl | `Deliver ] ->
  Packet.t ->
  unit) ->
  unit
(** Installs a per-event callback (used by {!Trace}); replaces any
    previous tracer. *)
