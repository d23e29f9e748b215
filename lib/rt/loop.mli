(** Single-process, single-thread event loop for the real-time runtime.

    One loop owns one {!Event_heap.t} (the scheduler core the simulator
    runs on too), one clock, one {!Obs.Sink.t} and one master RNG; every
    TFMCC endpoint hosted on it runs its timers and datagram callbacks
    on this loop, run-to-completion, with no other thread touching
    protocol state (DESIGN.md §13).  Timers and frame deliveries fire
    one at a time in (deadline, insertion) order through
    {!Event_heap.step}, each popped off the heap before it runs.

    Two modes:

    - {b Turbo} (virtual time): the clock jumps straight to the next
      timer deadline.  Deterministic — given the same seed and the same
      schedule of work, two runs fire identical callbacks in identical
      order — and fast enough to soak thousands of sessions for
      simulated minutes in wall-seconds.  The CI soak and the
      time-translation property test run in this mode.
    - {b Realtime} (wall clock): the loop writes one
      {!Tfmcc_core.Env.monotonic_clock} sample over [Unix.gettimeofday]
      per step (each fired entry, each fd callback, each pass of
      {!run}), so every read within one callback sees one instant;
      the loop sleeps in [Unix.select] until the next deadline, waking
      early for watched file descriptors (the UDP transport).  Backward
      clock steps and late timer callbacks are clamped/tolerated and
      counted under [tfmcc_rt_clock_anomaly_total]. *)

type mode = Turbo | Realtime

type t

val create : ?mode:mode -> ?epoch:float -> ?obs:Obs.Sink.t -> ?seed:int -> unit -> t
(** [epoch] is the initial clock value (default 0): turbo time starts
    there; realtime maps wall time onto [epoch +. elapsed].  [seed]
    (default 42) feeds the master RNG that {!split_rng} derives streams
    from.  A realtime timer callback firing more than 50 ms late counts
    as a clock anomaly. *)

val mode : t -> mode

val now : t -> float

val clock : t -> Event_heap.time_cell
(** The loop clock's cell, which {!now} reads: the [Env.clock] of every
    endpoint the loop hosts.  Read-only for callers. *)

val obs : t -> Obs.Sink.t

val split_rng : t -> Stats.Rng.t

val after : t -> delay:float -> (unit -> unit) -> Tfmcc_core.Env.timer
(** Non-finite or negative delays are clamped to zero and counted as a
    clock anomaly (kind ["bad-delay"]) rather than corrupting the
    timer heap. *)

val after_unit : t -> delay:float -> (unit -> unit) -> unit
(** {!after} without the {!Tfmcc_core.Env.timer} handle, for
    [Env.after_unit]: the callback cannot be cancelled, so the loop
    allocates nothing for it.  The sender's pacing timer, one per data
    packet, takes this path.  Same clamping as {!after}. *)

val at : t -> time:float -> (unit -> unit) -> Tfmcc_core.Env.timer
(** A deadline already in the past fires on the next {!run}, without
    moving {!now} back.  A non-finite [time] is replaced by {!now} and
    counted as a clock anomaly (kind ["bad-delay"]). *)

val frame_at :
  t ->
  base:Event_heap.time_cell ->
  offset:float ->
  (Tfmcc_core.Wire.msg -> int -> unit) ->
  Tfmcc_core.Wire.msg ->
  int ->
  unit
(** [frame_at t ~base ~offset deliver msg size] calls [deliver msg
    size] at [base.cell_time +. offset]: a datagram in flight, its
    decoded message queued with {!Event_heap.add_msg}, so it allocates
    no closure, timer or handle.  The fabric passes a path's FIFO
    horizon cell as [base] and [0.] as [offset], so no arrival time is
    boxed on the way in; [~base:Event_heap.time_zero ~offset:time]
    schedules at the absolute [time].  It fires in the same (deadline,
    seq) order as every other timer, under the {!set_exn_handler}
    backstop, and counts in {!timers_fired}.  It cannot be cancelled.
    Unlike {!at}, the due time is not clamped: the fabric only computes
    finite arrival times.
    @raise Invalid_argument on a NaN due time. *)

val every : t -> interval:float -> (unit -> unit) -> Tfmcc_core.Env.timer
(** Periodic timer: first fires [interval] seconds from now, then every
    [interval] after, until the returned timer is cancelled.  The chain
    survives a callback exception when {!set_exn_handler} is installed.
    @raise Invalid_argument on a non-finite or non-positive interval. *)

val set_exn_handler : t -> (exn -> Printexc.raw_backtrace -> unit) -> unit
(** Installs the crash backstop: an exception escaping a timer or fd
    callback is caught, counted under [tfmcc_rt_loop_exceptions_total],
    and handed to the handler instead of tearing down {!run}.  Without a
    handler (the default) exceptions propagate out of {!run}: the
    raising timer is consumed, and every other due timer, same-deadline
    siblings included, stays pending and fires on the next {!run}.
    Consulted at fire time, so timers scheduled before installation are
    covered too. *)

val exceptions_caught : t -> int

val watch_fd : t -> Unix.file_descr -> (unit -> unit) -> unit
(** Registers a readable-callback (realtime mode only; the turbo clock
    outruns any real socket). *)

val unwatch_fd : t -> Unix.file_descr -> unit

val run : ?until:float -> t -> unit
(** Runs until no timers remain or the loop clock reaches [until]
    (absolute).  In turbo mode the clock lands exactly on [until] when
    given.  More than a million entries firing without the deadline
    rising (a runaway zero-delay chain) fail with [Failure] instead of
    hanging, with or without {!set_exn_handler}.
    @raise Invalid_argument on a NaN [until], which no deadline would
    ever pass. *)

val timers_fired : t -> int
(** Entries fired over the loop's lifetime, frame deliveries included. *)

val timers_pending : t -> int
(** Live (scheduled, not yet fired or cancelled) entries, frame
    deliveries included. *)

val clock_anomalies : t -> int
(** Total anomalies (backward clock steps, late callbacks, bad delays)
    observed; same count as the [tfmcc_rt_clock_anomaly_total] metric
    family, which is registered lazily on first anomaly. *)
