(** Layered-multicast sender: L open-loop layers with multiplicatively
    spaced cumulative rates (FLID-DL style).  Layer 0 carries [base_rate]
    bytes/s; subscribing to layers 0..l yields a cumulative rate of
    base_rate · g^l (default g = 2), so each extra layer roughly doubles
    the receive rate.  The sender never adapts — all control is at the
    receivers. *)

type t

val create :
  Netsim.Topology.t ->
  session:int ->
  node:Netsim.Node.t ->
  ?layers:int ->
  ?base_rate:float ->
  ?growth:float ->
  unit ->
  t
(** Defaults: 6 layers, base 16 kB/s, growth 2 — cumulative rates
    16/32/64/128/256/512 kB/s.  Layer [l] sends on flow tag
    [session * 64 + l]. *)

val start : t -> at:float -> unit

val layers : t -> int

val cumulative_rate : t -> layer:int -> float
(** Bytes/s when subscribed through [layer] (0-based). *)
