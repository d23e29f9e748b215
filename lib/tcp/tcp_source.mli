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
  ?segment_size:int ->
  ?initial_cwnd:float ->
  ?max_cwnd:float ->
  ?overhead:float ->
  unit ->
  t
(** Builds a sender at [src] whose sink lives at [dst].  [conn]
    distinguishes parallel connections; [flow] is the accounting tag put
    on data packets.  The ACK handler is attached to [src]
    immediately; no packets flow until {!start}.  [overhead] (default
    1 ms) adds a uniform random delay to each transmission — ns-2's
    phase-effect breaker. *)

val start : t -> at:float -> unit
(** Schedules the first transmission at absolute time [at]. *)

val stop : t -> unit
(** Halts transmission and cancels the retransmit timer. *)

val cwnd : t -> float
(** Congestion window in segments. *)

val ssthresh : t -> float

val retransmits : t -> int

val srtt : t -> float option

val highest_ack : t -> int
(** All segments with seq < highest_ack are acknowledged. *)
