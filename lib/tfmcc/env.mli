(** Execution environment for the TFMCC protocol core.

    The sender, receiver, session, adversary and aggregator modules are
    written against this small record instead of any concrete runtime:
    the same protocol code drives the deterministic simulator
    ([Netsim_env], which implements the hooks on top of
    [Netsim.Engine]/[Netsim.Node]) and the real-time loopback/UDP
    runtime ([Rt], which implements them over a wall-clock event loop
    and a byte codec at the datagram boundary).

    Contract expected from implementations:

    - [clock] is a monotonic clock in seconds, read as
      [clock.cell_time]: the runtime owns the cell and writes it, the
      protocol only reads it.  A read is a raw double load, so a
      per-packet path reads the time without boxing it.  Within one
      callback every read sees the same instant.  The clock need not
      start at zero and the protocol must not assume any particular
      epoch (the time-translation property test enforces this).
    - [after]/[after_unit]/[at] schedule a callback; [after] and [at]
      return a cancellable timer.  Callbacks run on the environment's
      (single) event loop; the protocol core is not thread-safe and
      relies on run-to-completion callback semantics.
    - [send] transmits one protocol message.  [size] is the on-the-wire
      datagram size in bytes (data packets are padded to the configured
      packet size; the byte codec's frames are smaller), [flow] an
      accounting tag.  Simulated environments may carry the message by
      value; real transports encode it with {!Wire.encode}.
    - [join]/[leave] manage membership of the session's multicast
      group for this endpoint.
    - [split_rng] derives a fresh deterministic random stream.  Each
      protocol object calls it exactly once at construction, so
      environments can preserve stream assignment across refactors.
    - [obs] is the observability plane (metrics registry + journal). *)

type timer = { cancel : unit -> unit }

(** Datagram destination: the session's multicast group, or one
    endpoint (receiver reports, aggregation-tree forwarding). *)
type dest = To_group | To_node of int

type t = {
  id : int;  (** this endpoint's node/endpoint id *)
  clock : Event_heap.time_cell;
      (** The runtime's clock cell ([Netsim.Engine.time_cell],
          [Rt.Loop.clock]); read-only here. *)
  after : delay:float -> (unit -> unit) -> timer;
  after_unit : delay:float -> (unit -> unit) -> unit;
      (** Fire-and-forget [after]: no timer handle, so the runtime need
          not allocate one (the simulator schedules it allocation-free).
          Callbacks that may outlive their purpose guard themselves
          (generation counter or running flag) instead of cancelling. *)
  at : time:float -> (unit -> unit) -> timer;
  send : dest:dest -> flow:int -> size:int -> Wire.msg -> unit;
  join : unit -> unit;
  leave : unit -> unit;
  split_rng : unit -> Stats.Rng.t;
  obs : Obs.Sink.t;
}

val cancel_opt : timer option -> timer option
(** Cancels the timer if present; always returns [None] (the idiom used
    for [mutable t.xxx_timer <- cancel_opt t.xxx_timer]). *)

val clock_anomaly : t -> kind:string -> unit
(** Counts one real-clock hazard (non-monotonic sample, late timer
    callback) under [tfmcc_rt_clock_anomaly_total{kind=...}].  The
    counter is registered lazily on the first anomaly, so deterministic
    environments that never produce one leave the metrics registry —
    and therefore the golden-trace digests — untouched. *)

val monotonic_clock : ?on_anomaly:(float -> unit) -> (unit -> float) -> unit -> float
(** Wraps a raw clock into a monotonic one: a sample below the previous
    maximum is clamped to that maximum and reported to [on_anomaly]
    with the regression magnitude in seconds.  Real-time environments
    build their clock from this (wall clocks step backwards under NTP
    slew/step); the simulator's event clock is monotonic by
    construction and does not need it.  [Rt.Loop] samples it once per
    step into its clock cell. *)
