(** Engine-level progress watchdog (DESIGN.md §12).

    Supervised experiment tasks must stay bounded: a simulation that
    livelocks (callbacks rescheduling at a frozen simulated instant),
    explodes into an event storm, or blocks on wall-clock work would
    otherwise hold its worker domain forever.  [install] arms two
    read-only probes on an engine:

    - an {e event-count} hook ({!Engine.set_watchdog}, every 4096
      events) that aborts when simulated time has not advanced for
      {!Event_heap.livelock_events} consecutive events (livelock) or the
      total event count exceeds [max_events] (event storm), and polls
      the task's {!Par.Control} for wall-clock deadlines;
    - a {e sim-time} hook ({!Engine.every}, every 0.25 simulated
      seconds) that polls the control too, catching wall overruns in
      runs that process few events.

    An abort records an [Error] note under the ["netsim.watchdog"]
    journal component (so the task's failure report carries the journal
    window, the PR 5 strict-mode shape) and raises
    {!Par.Cancelled}[ (Stall _)]; deadline overruns raise
    {!Par.Cancelled}[ (Timeout _)] from the control itself.  Probes
    never touch protocol or RNG state: a watched run that completes is
    byte-identical to an unwatched one. *)

type config = {
  control : Par.Control.t;  (** cancellation + wall deadline source *)
  max_events : int option;  (** total event budget; [None] = unbounded *)
}

val install : config -> Engine.t -> unit
(** Arms both hooks on [engine].  Raises [Invalid_argument] on a
    non-positive [max_events]. *)
