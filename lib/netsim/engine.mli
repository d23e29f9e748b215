(** Discrete-event simulation engine.

    One [t] value owns simulated time, the event queue, and the master
    random stream.  All other simulator objects (links, agents, monitors)
    hold a reference to the engine and schedule callbacks on it.  It is
    an {!Event_loop.t}, the loop [Rt.Loop] runs too, so both backends
    fire in the same (time, schedule order); the engine adds the packet
    arena, the link counters, an events counter, the watchdog hook, and
    argument checks: no event may be scheduled in the past. *)

type t

type handle = Event_heap.handle
(** A scheduled event; cancellable.  [Event_heap.no_handle] is the
    handle of none. *)

val create : ?seed:int -> ?obs:Obs.Sink.t -> unit -> t
(** An engine at time 0.  Default seed 42.  [obs] (default
    {!Obs.Sink.null}) is the sink every component reachable from this
    engine publishes into; the engine counts events under
    [netsim_engine_events_total]. *)

val obs : t -> Obs.Sink.t
(** The sink passed at creation (the null sink when none was). *)

val arena : t -> Packet.arena
(** The free list of this engine's packets: agents {!Packet.alloc} from
    it, links and the topology release into it.  It dies with the
    engine, so packets left in flight cost the next engine nothing. *)

(** The registry counters every link of an engine shares. *)
type link_counters = {
  m_tx : Obs.Metrics.Counter.t;
  m_deliver : Obs.Metrics.Counter.t;
  m_drop_queue : Obs.Metrics.Counter.t;
  m_drop_loss : Obs.Metrics.Counter.t;
  m_drop_down : Obs.Metrics.Counter.t;
  m_drop_ttl : Obs.Metrics.Counter.t;
}

val link_counters : t -> link_counters
(** This engine's [netsim_link_*_total] counters.  The first call (the
    first {!Link.create} on the engine) registers them in the engine's
    registry; later calls return the same bundle. *)

val now : t -> float
(** Current simulated time in seconds. *)

val time_cell : t -> Event_heap.time_cell
(** The clock cell, for hot paths: a [cell_time] read is a raw double
    load, where {!now} boxes its result.  It is the [Env.clock] of every
    simulated endpoint.  Read-only for callers. *)

val rng : t -> Stats.Rng.t
(** The master random stream; components split their own at setup. *)

val split_rng : t -> Stats.Rng.t
(** Convenience for [Stats.Rng.split (rng t)]. *)

val at : t -> time:float -> (unit -> unit) -> handle
(** Schedules a callback at an absolute time; [Invalid_argument] if it
    is before [now]. *)

val after : t -> delay:float -> (unit -> unit) -> handle
(** Schedules a callback [delay] seconds from now (delay ≥ 0). *)

val after_unit : t -> delay:float -> (unit -> unit) -> unit
(** Fire-and-forget {!after}: no handle, and nothing allocated. *)

val after_pkt : t -> delay:float -> (Packet.t -> int -> unit) -> Packet.t -> unit
(** Fire-and-forget packet event: after [delay], applies the function
    to the packet and 0 ({!Event_loop.msg_at}).  With a preallocated
    function it allocates nothing. *)

val at_unit :
  t -> base:Event_heap.time_cell -> offset:float -> (unit -> unit) -> unit
(** Fire-and-forget {!at} at [base.cell_time +. offset]; a hot path
    that keeps its deadline in a cell passes [~offset:0.] and boxes
    nothing.  Raises [Invalid_argument] on a due time in the past. *)

val cancel : t -> handle -> unit

val every : t -> interval:float -> (unit -> unit) -> unit -> unit
(** {!Event_loop.every}: the periodic audits of [Check.Invariant] and
    the sim-time poll of {!Watchdog}. *)

val run : ?until:float -> t -> unit
(** {!Event_loop.run}.  After {!stop} or an exception out of a callback
    or the watchdog, every event not yet fired stays pending and the
    next [run] resumes in the same order. *)

val stop : t -> unit
(** Makes the innermost [run] return after the current callback. *)

val set_watchdog : t -> ?every_events:int -> (unit -> unit) -> unit
(** Installs a callback run after every [every_events] (default 4096,
    ≥ 1) events, replacing any previous one: {!Watchdog}'s hook.  It
    must not touch simulation state; an exception it raises propagates
    out of {!run}. *)

val on_livelock : t -> (unit -> unit) -> unit
(** {!Event_loop.on_livelock}: {!Watchdog} raises its stall abort here. *)

val events_processed : t -> int

val queue_consistent : t -> bool
(** Audit for the invariant checker: the heap is well-formed
    ({!Event_heap.well_formed}) and no pending event precedes the clock.
    O(n); purges cancelled events at the root (behaviour-neutral). *)
