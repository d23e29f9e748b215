(** Declarative runtime invariant checker (DESIGN.md §11).

    A checker is a registry of predicates over protocol and simulator
    state, sampled periodically through the engine's own event loop and
    reported through the engine's observability sink: every violation
    increments [check_violations_total{invariant=<id>}], lands in the
    protocol journal as an [Error]-severity note under the ["check"]
    component, and — in strict mode — aborts the run by raising
    {!Violation} with the offending journal window attached.

    Probes are read-only: sampling adds engine events but never touches
    protocol or RNG state, so a checked run follows the exact trajectory
    of an unchecked one.  When no checker is installed nothing is
    scheduled and the cost is zero.

    The pure [check_*] predicates are exposed separately so unit tests
    can exercise each one against violating and non-violating fixtures
    without building a simulation. *)

type t

exception Violation of string
(** Raised (strict mode only) at the sample point that observed the
    violation; the message carries the invariant id, simulated time,
    detail, and the tail of the protocol journal. *)

val create : ?strict:bool -> unit -> t
(** [strict] (default false) aborts on first violation.  Every probe
    registered through the checker samples every 0.25 simulated
    seconds; each violation (counted even when not strict) bumps
    [check_violations_total{invariant=ID}] and journals an [Error]
    note. *)

val journal_window : Obs.Journal.t -> string
(** The last-40-entry tail of a protocol journal rendered one entry per
    line ({!Obs.Journal.pp_entry}) — the reporting shape strict-mode
    {!Violation} messages carry, shared with the sweep supervisor's
    per-task failure reports.  ["(journal empty or disabled)\n"] when
    there is nothing to show. *)

(** {2 Pure predicates}

    Each returns [Ok ()] or [Error detail].  IDs used in metrics labels:
    [link_conservation], [loss_event_rate], [rtt], [x_recv],
    [rate_bounds], [rate_ceiling], [clr_defined], [time_monotonic],
    [event_queue]. *)

(** A point-in-time reading of one link's conservation ledger
    ({!Netsim.Link.packets_offered} and friends).  [queued] is the
    queue-discipline occupancy, [on_wire] 1 when the line is busy. *)
type link_counts = {
  offered : int;
  drop_down : int;
  drop_ttl : int;
  drop_queue : int;
  queued : int;
  on_wire : int;
  sent : int;
  drop_loss : int;
  in_flight : int;
  delivered : int;
}

val check_link_conservation : link_counts -> (unit, string) result
(** Both identities: [offered = drop_down + drop_ttl + drop_queue +
    queued + on_wire + sent] and [sent = drop_loss + in_flight +
    delivered]. *)

val check_loss_event_rate : float -> (unit, string) result
(** p ∈ [0, 1] and not NaN. *)

val check_rtt : float -> (unit, string) result
(** Finite and strictly positive. *)

val check_x_recv : float -> (unit, string) result
(** Finite and non-negative. *)

val check_rate_bounds : x_min:float -> x_max:float -> float -> (unit, string) result
(** Sending rate within [x_min, x_max] (small relative slack). *)

val check_rate_ceiling :
  in_slowstart:bool ->
  starved:bool ->
  clr_rate:float option ->
  x_min:float ->
  rate:float ->
  (unit, string) result
(** In congestion avoidance with a live CLR and no starvation decay, the
    sending rate never exceeds [max clr_rate x_min] (the CLR's reported
    rate, modulo the one-packet-per-RTT floor).  Vacuously [Ok] in
    slowstart, when starved, or without a CLR. *)

val check_clr_defined :
  round:int ->
  reports:int ->
  clr_changes:int ->
  starved:bool ->
  has_clr:bool ->
  (unit, string) result
(** Once feedback rounds are under way (round ≥ 3) and reports have been
    accepted, a CLR must have been elected at some point — a sender that
    heard receivers but never chose a CLR is drifting from §2.2. *)

val check_time_monotonic : last:float -> now:float -> (unit, string) result
(** [now ≥ last]. *)

(** {2 Probes}

    A probe binds a predicate to live state and runs at every sample
    tick of the engine it was registered against.  Each engine watched
    gets one periodic sampler ([check_samples_total] counts ticks). *)

val watch_engine : t -> Netsim.Engine.t -> unit
(** Event-queue structural audit ({!Netsim.Engine.queue_consistent}) and
    clock monotonicity across sample points. *)

val watch_link : t -> Netsim.Engine.t -> ?name:string -> Netsim.Link.t -> unit
(** Per-link packet conservation.  [name] tags the violation detail. *)

val watch_session :
  t -> Netsim.Engine.t -> ?cfg:Tfmcc_core.Config.t -> Tfmcc_core.Session.t -> unit
(** The full TFMCC predicate set: sender rate bounds and equation-implied
    CLR ceiling, CLR liveness, and per-receiver loss-event rate / RTT /
    x_recv sanity (receivers enumerated at each tick, so late joins are
    covered). [cfg] (default {!Tfmcc_core.Config.default}) supplies the
    rate bounds. *)
