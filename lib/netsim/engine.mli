(** Discrete-event simulation engine.

    One [t] value owns simulated time, the event queue, and the master
    random stream.  All other simulator objects (links, agents, monitors)
    hold a reference to the engine and schedule callbacks on it.  The
    queue is an {!Event_heap.t}, the scheduler core [Rt.Loop] runs on
    too, so both backends fire in the same (time, schedule order). *)

type t

type handle
(** A scheduled event; cancellable. *)

val create : ?seed:int -> ?obs:Obs.Sink.t -> unit -> t
(** [create ~seed ()] makes an engine at time 0.  Default seed 42.
    [obs] (default {!Obs.Sink.null}) is the observability plane every
    component reachable from this engine publishes into; the engine
    itself counts processed events under
    [netsim_engine_events_total]. *)

val obs : t -> Obs.Sink.t
(** The sink passed at creation (the null sink when none was). *)

val link_table : t -> Link_table.t
(** The engine-owned struct-of-arrays hot state its links index
    ({!Link_table}).  Links allocate their slot here at creation. *)

val now : t -> float
(** Current simulated time in seconds. *)

val time_cell : t -> Event_heap.time_cell
(** The engine's clock cell, for hot paths that read the time every
    packet: a [cell_time] field read is a raw double load, where {!now}
    boxes its result at the call boundary.  Read-only for callers — the
    engine owns the write. *)

val rng : t -> Stats.Rng.t
(** The engine's master random stream.  Components that need their own
    stream should [Stats.Rng.split] it at setup time. *)

val split_rng : t -> Stats.Rng.t
(** Convenience for [Stats.Rng.split (rng t)]. *)

val at : t -> time:float -> (unit -> unit) -> handle
(** Schedules a callback at an absolute time ≥ [now].  Raises
    [Invalid_argument] on times in the past. *)

val after : t -> delay:float -> (unit -> unit) -> handle
(** Schedules a callback [delay] seconds from now (delay ≥ 0). *)

val after_unit : t -> delay:float -> (unit -> unit) -> unit
(** Fire-and-forget {!after}: no handle (the event cannot be cancelled).
    Use whenever the handle would be [ignore]d. *)

val after_pkt : t -> delay:float -> (Packet.t -> int -> unit) -> Packet.t -> unit
(** Fire-and-forget packet event: after [delay], applies the function
    to the packet and 0 (an {!Event_heap.add_msg} message whose int the
    simulator leaves unused).  With a preallocated per-object function
    this schedules a delivery without allocating a per-packet closure. *)

val at_unit : t -> time:float -> (unit -> unit) -> unit
(** Fire-and-forget {!at}: no handle, like {!after_unit}. *)

val cancel : t -> handle -> unit

val every :
  t -> ?start:float -> ?until:float -> interval:float -> (unit -> unit) -> unit
(** Schedules [callback] at [start] (default now + interval) and every
    [interval] seconds thereafter, stopping after [until] if given —
    without [until] the schedule is unbounded, so drive the engine with
    [run ~until].  Used by the periodic audits of [Check.Invariant]
    and the sim-time poll of {!Watchdog}. *)

val run : ?until:float -> t -> unit
(** Processes events in (time, schedule order) until the queue empties,
    [until] is reached (events at t > until stay queued and [now] becomes
    [until]), or {!stop} is called from inside a callback.  An event
    scheduled at the current time fires after the events already
    pending at that time.  After {!stop} or an exception out of a
    callback or the watchdog, every event not yet fired stays pending
    and the next [run] resumes in the same order.
    @raise Invalid_argument on a NaN [until], which no event time would
    ever pass. *)

val stop : t -> unit
(** Makes the innermost [run] return after the current callback. *)

val set_watchdog : t -> ?every_events:int -> (unit -> unit) -> unit
(** Installs a callback invoked from the event loops after every
    [every_events] (default 4096, must be ≥ 1) processed events — the
    hook {!Watchdog} rides to detect stalls and enforce wall-clock
    deadlines.  The callback must be read-only with respect to
    simulation state; an exception it raises propagates out of {!run}
    and aborts the run.  Replaces any previous watchdog.  With
    none installed the per-event cost is a single integer decrement. *)

val clear_watchdog : t -> unit

val events_processed : t -> int

val pending_events : t -> int

val queue_consistent : t -> bool
(** Structural audit of the event queue for the runtime invariant
    checker: the underlying heap is well-formed
    ({!Event_heap.well_formed}) and no pending event precedes the
    current clock — i.e. simulated time can only move forward.  O(n) in
    the queue size; purges cancelled events surfacing at the root as a
    side effect (behaviour-neutral). *)
