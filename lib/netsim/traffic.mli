(** Background-traffic generators (the ns-2 CBR / Poisson / exponential
    on-off sources used as cross traffic in congestion-control studies).

    Generators inject unlabelled unicast packets ({!Packet.Raw}) between
    two nodes at a configured average rate; they do not react to
    congestion — that is their point. *)

type t

val cbr :
  Topology.t ->
  flow:int ->
  src:Node.t ->
  dst:Node.t ->
  rate_bps:float ->
  unit ->
  t
(** Constant bit rate in 1000-byte packets.  Each inter-packet gap is
    spread uniformly over ±5% of its nominal value, avoiding simulator
    phase effects. *)

val poisson :
  Topology.t ->
  flow:int ->
  src:Node.t ->
  dst:Node.t ->
  rate_bps:float ->
  unit ->
  t
(** Exponentially distributed inter-packet gaps with the given average
    rate, in 1000-byte packets. *)

val on_off :
  Topology.t ->
  flow:int ->
  src:Node.t ->
  dst:Node.t ->
  rate_bps:float ->
  unit ->
  t
(** Exponential on/off source of 1000-byte packets: bursts at [rate_bps] during on-periods
    of mean 1 s, silent during off-periods of mean 1 s, so the
    long-run average rate is half of [rate_bps]. *)

val start : t -> at:float -> unit
(** Starts sending at [at]; a generator runs until the simulation ends. *)
