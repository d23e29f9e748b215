(** Many-session soak driver for the real-time runtime: builds [n]
    TFMCC sessions (one sender, [receivers] receivers each) as {!Net}
    endpoints on one loop, starts them staggered to decorrelate
    feedback rounds, runs for [duration] loop-seconds and reports
    per-session outcomes.  This is what [tfmcc-sim loopback],
    [tfmcc-sim chaos-rt] and the CI soaks run.

    Sessions run {e supervised} (DESIGN.md §15): every timer, callback
    and delivery hook is wrapped so an exception in one session is a
    session crash — counted, journaled, and answered with
    restart-with-exponential-backoff — never a loop crash.  A stall
    watchdog (the rt mirror of [Netsim.Watchdog]'s no-progress rule)
    catches sessions that stop sending without raising.  Each session
    ends the run with a structured {!Par.outcome}. *)

type transport =
  | Loopback  (** {!Net.create}'s in-process fabric; scales to thousands *)
  | Udp_sockets
      (** {!Net.create_udp}'s kernel UDP sockets; one fd per endpoint,
          realtime mode only *)

type supervision = {
  probe_interval : float;  (** seconds between health-probe sweeps *)
}
(** A session that sends no new packet for 20 consecutive probes counts
    as stalled.  A crashed or stalled session is restarted after a
    backoff of 0.25 s that doubles per restart, up to 3 times; the
    next failure leaves it [Failed]. *)

(** Deterministic fault injection, the harness-level complement of a
    {!Chaos.plan} (which impairs the fabric; these target sessions).
    Times are relative to the config epoch. *)
type fault =
  | Kill_session of { session : int; at : float }
      (** Injects an exception into the session's timer path at [at] —
          exercises the full crash/restart machinery. *)
  | Kill_session_every of { session : int; at : float; period : float; until : float }
      (** Repeated kills; enough of them exhaust the 3 restarts and
          drive the session to [Failed]. *)
  | Stop_sender of { session : int; at : float }
      (** Stops the sender without an exception — the session goes
          quiet, which only the stall watchdog can notice. *)
  | Partition_clr of { at : float; until : float }
      (** At [at], looks up every session's current CLR and blocks that
          endpoint on the fabric until [until] — the rt twin of the
          simulator's CLR-partition scenario.  Each window heals only
          the endpoints it blocked, so overlapping windows compose. *)

type config = {
  sessions : int;
  receivers : int;  (** receivers per session *)
  duration : float;  (** loop-seconds (virtual in turbo mode) *)
  impair : Net.impairment;  (** ignored by [Udp_sockets] (the kernel is the shim) *)
  cfg : Tfmcc_core.Config.t;
  mode : Loop.mode;
  transport : transport;
  epoch : float;
  seed : int;
  supervise : supervision;
  chaos : Chaos.plan;  (** transport impairment schedule *)
  faults : fault list;  (** session-targeted fault schedule *)
}

val default : config
(** 4 sessions x 1 receiver, 8 s turbo, 2% loss, 25 ms delay, 5 ms
    jitter — an impairment under which the equation rate is a few
    hundred packets per second, so rates visibly converge within the
    run.  1 s supervision probes, no chaos, no faults. *)

val chaos_soak : config
(** The [tfmcc-sim chaos-rt] plan: 200 sessions x 4 receivers for 20 s
    with [rtt_initial] 0.15 s, every session's CLR partitioned over
    3-6 s, the fabric flapped down over 7-7.4 s, and 20% of each
    session's receivers churned every 1.5 s (down 0.6 s) over 4-10 s;
    otherwise {!default}. *)

type session_stat = {
  session : int;
  rate : float;  (** final sender rate, bytes/s *)
  packets : int;
  reports : int;
  starved : bool;  (** sender sits in the starvation decay at the end *)
  loss_rate : float;  (** mean receiver loss-event rate *)
  rtt : float;  (** mean receiver RTT estimate *)
  rtt_measured : bool;  (** every receiver holds a real RTT sample *)
  failovers : int;  (** CLR failovers the sender performed *)
  starvations : int;  (** feedback starvation episodes *)
}

type result = {
  stats : session_stat list;
      (** final stats of each session's last incarnation (failed
          sessions report the state they died with) *)
  outcomes : (int * session_stat Par.outcome) list;
      (** per-session structured outcome, PR 6 shape: [Ok stat] for a
          session alive at the end (restarts allowed), [Failed] for a
          crash that exhausted its restarts (or a fatal transport
          error), [Stalled] for a watchdog retirement *)
  wall_s : float;  (** host wall-clock spent inside the loop *)
  end_time : float;  (** loop clock when the run stopped *)
  timers_fired : int;
  clock_anomalies : int;
  frames_sent : int;
  frames_delivered : int;
  frames_lost : int;
  frames_blocked : int;  (** partition + flap chaos drops + socket sheds *)
  encode_drops : int;  (** frames that failed to encode + socket send errors *)
  decode_errors : int;
  crashes : int;  (** session crashes caught across the run *)
  restarts : int;  (** session restarts performed *)
  stalls : int;  (** stall-watchdog firings *)
  sessions_failed : int;  (** sessions in the [Failed] state at the end *)
  loop_exceptions : int;
      (** exceptions that escaped every session guard and hit the loop
          backstop — zero on a healthy run, asserted by the CI soak *)
  clr_partitioned : int;  (** CLR endpoints blocked by [Partition_clr] *)
}

val run : ?obs:Obs.Sink.t -> config -> result
(** Builds its own loop/fabric; [obs] (default a fresh sink) receives
    the live metrics registry, including the [tfmcc_rt_*] transport
    counters, the supervision counters
    ([tfmcc_rt_session_crashes_total], [tfmcc_rt_sessions_restarted_total],
    [tfmcc_rt_sessions_failed_total], [tfmcc_rt_session_stalls_total])
    and a [tfmcc_rt_sessions] gauge.  Raises [Invalid_argument] for a
    fault or [Chaos.Churn] naming an unknown session, or a fault window
    that is not finite with [until > at]. *)

val converged : session_stat -> cfg:Tfmcc_core.Config.t -> bool
(** Non-zero goodput, not in the starvation decay, and at least one
    packet per measured RTT — i.e. the session ended the run with
    congestion control actually operating, not parked on a degenerate
    floor (the absolute minimum is one packet per 64 s). *)
