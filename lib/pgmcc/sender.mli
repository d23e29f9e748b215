(** PGMCC sender.

    Runs a TCP-like window between itself and the acker: the window opens
    by 1 per ACK in slow start and 1/W per ACK in congestion avoidance,
    and halves (at most once per RTT) when the acker reports loss.
    Transmission is ack-clocked against the window.

    Acker election (Rizzo's throughput comparison): every ACK/NAK carries
    the receiver's smoothed loss fraction; the sender measures the RTT
    from the timestamp echo and compares receivers with the simplified
    model T ∝ 1/(R·√p), switching when a receiver's T falls a hysteresis
    margin below the acker's.

    This is congestion control only — like the TFMCC paper we separate
    reliability from congestion control, so losses are not retransmitted
    and sequence numbers always advance. *)

type t

val create :
  Netsim.Topology.t ->
  session:int ->
  node:Netsim.Node.t ->
  unit ->
  t
(** Sends 1000-byte packets on flow [session], and switches acker when a
    candidate's modelled throughput is below 0.75 of the acker's. *)

val start : t -> at:float -> unit
(** Starts sending at [at]; the session then runs until the simulation
    ends.  Packets sent and window halvings count under
    [pgmcc_packets_sent_total] and [pgmcc_halvings_total] (label
    [session]). *)

val window : t -> float

val acker : t -> int option
