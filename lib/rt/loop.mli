(** Single-process, single-thread event loop for the real-time runtime.

    One loop is an {!Event_loop.t} (the loop the simulator's engine
    runs too) with one {!Obs.Sink.t} and one master RNG; every TFMCC
    endpoint hosted on it runs its timers and datagram callbacks on it,
    run-to-completion, with no other thread touching protocol state
    (DESIGN.md §13).  The loop adds realtime sampling, fd watching,
    clock-anomaly counting and the clamping of bad delays.

    Two modes:

    - {b Turbo} (virtual time): the clock jumps straight to the next
      timer deadline.  Deterministic (same seed, same work: same
      callbacks in the same order) and fast enough to soak thousands of
      sessions for simulated minutes in wall-seconds.
    - {b Realtime} (wall clock): one {!Tfmcc_core.Env.monotonic_clock}
      sample per step (each fired entry, fd callback and pass of {!run}),
      so every read within one callback sees one instant; the loop sleeps
      in [Unix.select] until the next deadline or a watched fd (the UDP
      transport).  Backward clock steps and late timers are counted under
      [tfmcc_rt_clock_anomaly_total]. *)

type mode = Turbo | Realtime

type t

val create : ?mode:mode -> ?epoch:float -> ?obs:Obs.Sink.t -> ?seed:int -> unit -> t
(** [epoch] is the initial clock value (default 0); realtime maps wall
    time onto [epoch +. elapsed].  [seed] (default 42) feeds the master
    RNG.  A realtime timer firing over 50 ms late is a clock anomaly. *)

val mode : t -> mode

val now : t -> float

val clock : t -> Event_heap.time_cell
(** The clock's cell, the [Env.clock] of every endpoint the loop hosts.
    Read-only for callers. *)

val obs : t -> Obs.Sink.t

val split_rng : t -> Stats.Rng.t

val after : t -> delay:float -> (unit -> unit) -> Tfmcc_core.Env.timer
(** Non-finite or negative delays are clamped to zero and counted as a
    clock anomaly (kind ["bad-delay"]). *)

val after_unit : t -> delay:float -> (unit -> unit) -> unit
(** {!after} without a handle, for [Env.after_unit] (the sender's pacing
    timer): it cannot be cancelled, and allocates nothing. *)

val at : t -> time:float -> (unit -> unit) -> Tfmcc_core.Env.timer
(** A deadline already in the past fires on the next {!run}, without
    moving {!now} back.  A non-finite [time] is clamped as {!after}'s
    delay is. *)

val cancel : t -> Tfmcc_core.Env.timer -> unit
(** [Env.cancel]: lazy deletion, allocating nothing.  Cancelling a fired
    or cancelled timer, or [Env.no_timer], does nothing. *)

val frame_at :
  t ->
  base:Event_heap.time_cell ->
  offset:float ->
  (Tfmcc_core.Wire.msg -> int -> unit) ->
  Tfmcc_core.Wire.msg ->
  int ->
  unit
(** [frame_at t ~base ~offset deliver msg size] calls [deliver msg
    size] at [base.cell_time +. offset] ({!Event_loop.msg_at}): a
    datagram in flight, with no closure, timer or handle.  The fabric
    passes a path's FIFO horizon cell as [base] and [0.] as [offset], so
    no arrival time is boxed.  It fires in (deadline, seq) order with
    every timer, under the backstop, and counts in {!timers_fired}; it
    cannot be cancelled, and its due time is not clamped.
    @raise Invalid_argument on a NaN due time. *)

val every : t -> interval:float -> (unit -> unit) -> unit -> unit
(** {!Event_loop.every}. *)

val set_exn_handler : t -> (exn -> Printexc.raw_backtrace -> unit) -> unit
(** {!Event_loop.set_exn_handler}, for fd callbacks too; each exception
    caught is counted under [tfmcc_rt_loop_exceptions_total].  Consulted
    at fire time, so earlier timers are covered too. *)

val exceptions_caught : t -> int

val watch_fd : t -> Unix.file_descr -> (unit -> unit) -> unit
(** Registers a readable-callback (realtime mode only; the turbo clock
    outruns any real socket). *)

val unwatch_fd : t -> Unix.file_descr -> unit

val run : ?until:float -> t -> unit
(** Runs until no timers remain or the clock reaches [until]
    (absolute); turbo mode is {!Event_loop.run}, whose livelock rule
    turns a runaway zero-delay chain into [Failure] in both modes.
    @raise Invalid_argument on a NaN [until]. *)

val timers_fired : t -> int
(** Entries fired over the loop's lifetime, frame deliveries included. *)

val timers_pending : t -> int
(** Live (not yet fired or cancelled) entries, frames included. *)

val clock_anomalies : t -> int
(** Anomalies observed (backward clock steps, late callbacks, bad
    delays): the [tfmcc_rt_clock_anomaly_total] family's total, which
    is registered on the first. *)
