(** TCP Reno sender with an infinite (FTP-like) data source.

    Implements slow start, congestion avoidance, 3-dupack fast retransmit
    with Reno fast recovery (window inflation), and RTO with
    Jacobson/Karels estimation and exponential backoff — the ns-2
    [Agent/TCP/Reno] behaviour the paper competes against. *)

type t

val create :
  Netsim.Topology.t ->
  conn:int ->
  flow:int ->
  src:Netsim.Node.t ->
  dst:Netsim.Node.t ->
  t
(** Builds a sender at [src] whose sink lives at [dst].  [conn]
    distinguishes parallel connections; [flow] is the accounting tag put
    on data packets.  The ACK handler is attached to [src]
    immediately; no packets flow until {!start}.  Segments are
    {!Segment.data_size} bytes; the window starts at 1 segment and is
    capped at 10000.  Each transmission waits a uniform random delay of
    up to 1 ms — ns-2's "overhead", a phase-effect breaker. *)

val start : t -> at:float -> unit
(** Schedules the first transmission at absolute time [at]; the
    connection then sends until the simulation ends.  Retransmissions
    count under [tcp_retransmits_total{conn}]. *)
