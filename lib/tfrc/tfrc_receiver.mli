(** Unicast TFRC receiver: measures the loss event rate with the WALI
    filter and the receive rate, and sends one feedback packet per RTT
    (seeded with the sender's RTT estimate carried in data packets). *)

type t

val create :
  Netsim.Topology.t ->
  conn:int ->
  node:Netsim.Node.t ->
  sender:Netsim.Node.t ->
  t
(** Feedback packets carry the accounting tag -1, which no experiment
    monitor watches. *)

val loss_event_rate : t -> float
(** Data packets received and feedback sent count under
    [tfrc_receiver_packets_received_total] and
    [tfrc_receiver_feedback_total] (label [conn]). *)
