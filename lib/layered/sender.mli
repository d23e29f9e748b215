(** Layered-multicast sender: L open-loop layers with multiplicatively
    spaced cumulative rates (FLID-DL style).  Layer 0 carries a base
    rate; subscribing to layers 0..l yields a cumulative rate of
    base · g^l (g = 2), so each extra layer doubles the receive
    rate.  The sender never adapts — all control is at the
    receivers. *)

type t

val create :
  Netsim.Topology.t ->
  session:int ->
  node:Netsim.Node.t ->
  unit ->
  t
(** 6 layers, base 16 kB/s, growth 2 — cumulative rates
    16/32/64/128/256/512 kB/s, which every data packet of a layer
    carries for its layer and the next.  Layer [l] sends on flow tag
    [session * 64 + l]. *)

val start : t -> at:float -> unit
