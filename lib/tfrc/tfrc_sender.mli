(** Unicast TFRC sender (RFC 3448 style, paper §1.1).

    Paces data packets at rate X.  On each feedback packet it measures the
    RTT from the echoed timestamp, computes the allowed rate from the
    Padhye equation and sets
    X = max(min(X_calc, 2·X_recv), s/t_mbi); while the receiver reports
    p = 0 it instead slow-starts, X = min(2·X, 2·X_recv).  A no-feedback
    timer (4 RTT) halves the rate in the absence of reports. *)

type t

val create :
  Netsim.Topology.t ->
  conn:int ->
  flow:int ->
  src:Netsim.Node.t ->
  dst:Netsim.Node.t ->
  unit ->
  t
(** Sends one packet per second until the first feedback arrives
    (RFC 3448 §4.2 spirit). *)

val start : t -> at:float -> unit

val rate_bytes_per_s : t -> float

val rtt : t -> float option
(** Smoothed RTT; [None] before the first feedback. *)
