(** TEAR sender: a pure pacer.  All the intelligence lives at the
    receiver; the sender stamps packets, measures the RTT from feedback
    echoes (the receiver needs it to turn windows into rates and to pace
    its feedback), and sets its sending rate to the advertised value. *)

type t

val create :
  Netsim.Topology.t ->
  conn:int ->
  flow:int ->
  src:Netsim.Node.t ->
  dst:Netsim.Node.t ->
  unit ->
  t
(** Sends one packet a second until the first feedback. *)

val start : t -> at:float -> unit
(** Starts sending at [at]; the connection then runs until the
    simulation ends.  Feedback it receives counts under
    [tear_sender_feedback_total{conn}]. *)

val rate_bytes_per_s : t -> float

val rtt : t -> float option
