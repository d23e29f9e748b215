(** Receiver-driven layered receiver with TFMCC's equation-based
    controller.

    The receiver always subscribes to layer 0, measures the loss event
    rate across everything it receives (the WALI filter over a combined
    arrival clock) and computes the TCP-friendly rate from the control
    equation using a configured RTT estimate (there is no feedback
    channel to measure one — the paper's suggestion inherits exactly this
    limitation, which we document rather than hide).

    Layer management:
    - leave immediately down to the highest prefix whose cumulative rate
      is at most the calculated rate;
    - join the next layer only when the calculated rate exceeds its
      cumulative rate *and* the join timer allows it — after a join gets
      undone, the next attempt for that layer waits twice as long
      (FLID-DL's dynamic join timers against join/leave thrash). *)

type t

val create :
  Netsim.Topology.t ->
  session:int ->
  node:Netsim.Node.t ->
  t
(** The receiver assumes an RTT of 100 ms, waits an initial per-layer
    join backoff of 2 s and uses the equation parameter b = 2 (as in
    the TFMCC config). *)

val join : t -> unit
(** Subscribes to layer 0 and starts the controller, which runs until
    the simulation ends. *)

val subscription : t -> int
(** Number of layers currently subscribed. *)

val cumulative_rate : t -> float
(** Bytes/s implied by the current subscription (0 before any data). *)

val loss_event_rate : t -> float

val packets_received : t -> int

val joins : t -> int
(** Layer-join actions performed (diagnostic; excludes the initial
    layer-0 join). *)

val drops : t -> int
(** Layer-leave actions performed because the calculated rate fell. *)
