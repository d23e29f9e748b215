(** PGMCC receiver.

    Tracks the multicast sequence space, maintains a smoothed per-packet
    loss fraction, and feeds the sender's acker election:
    - the elected acker ACKs every data packet (cumulative, with a
      timestamp echo so the sender can measure its RTT);
    - every receiver reports losses with NAKs (rate-limited and randomly
      delayed — we model the suppression PGMCC delegates to network
      elements or randomized timers);
    - every receiver answers the first data packet it sees with one
      initial ACK so the sender can elect a first acker. *)

type t

val create :
  Netsim.Topology.t ->
  session:int ->
  node:Netsim.Node.t ->
  sender:Netsim.Node.t ->
  t
(** The receiver sends at most one NAK per 0.25 s. *)

val join : t -> unit

val loss_estimate : t -> float
(** Smoothed per-packet loss fraction. *)
