(** TEAR receiver: the shadow TCP window.

    Every arriving data packet clocks the emulated window exactly as an
    ACK would clock TCP's: +1 per packet in slow start, +1/W in
    congestion avoidance.  A loss event (sequence gap outside the current
    event's RTT window, reusing {!Tfrc.Loss_history}'s aggregation) ends
    the current *epoch*: the window halves and the epoch's mean window is
    pushed into a WALI-weighted history.  The rate fed back once per RTT
    is (weighted mean epoch window) · s / RTT — TCP's long-term share
    without TCP's instantaneous sawtooth. *)

type t

val create :
  Netsim.Topology.t ->
  conn:int ->
  node:Netsim.Node.t ->
  sender:Netsim.Node.t ->
  t
(** The smoothed window weighs the last 8 epoch means. *)

val window : t -> float
(** Current emulated congestion window (packets). *)

val rate_bytes_per_s : t -> float
(** The rate the receiver currently advertises. *)

val epochs_completed : t -> int
