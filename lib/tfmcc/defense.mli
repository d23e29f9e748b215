(** Adversarial-receiver defense layer (DESIGN.md §10).

    A Byzantine receiver in single-rate multicast congestion control can
    capture the whole group's rate with one forged report: claim a tiny
    calculated rate (understater), a tiny RTT (to win the CLR election),
    or spray immediate feedback (to suppress honest reports).  This
    module is the sender-side counterpart: per-report plausibility
    screening, a cross-receiver outlier screen gating CLR capture, CLR
    flap damping, and a suspicion/quarantine score.  All decisions are
    counted in the metrics registry ([tfmcc_defense_*_total]) and
    journaled ({!Obs.Journal.Defense_reject}, {!Obs.Journal.Clr_damped},
    {!Obs.Journal.Quarantine}).

    The layer only ever {e rejects} influence — it never invents rate
    increases — so with honest receivers its worst
    case is a short delay before a genuinely degraded receiver is
    believed.  It is instantiated only when
    {!Config.t.defense_enabled} is set. *)

type t

type reject =
  | Quarantined
  | Spam
  | Implausible_rtt
  | Implausible_rate
  | Implausible_xrecv
  | Implausible_echo_delay

val create :
  cfg:Config.t -> obs:Obs.Sink.t -> session:int -> node:int -> unit -> t

val screen :
  t ->
  now:float ->
  round_duration:float ->
  sender_rate:float ->
  sender_round:int ->
  rx:int ->
  rate:float ->
  have_rtt:bool ->
  rtt:float ->
  p:float ->
  x_recv:float ->
  has_loss:bool ->
  echo_delay:float ->
  rtt_sample:float option ->
  is_clr:bool ->
  reject option
(** Per-report plausibility: quarantine, per-round spam limit,
    echo-delay bound, RTT floor against the sender-side sample, x_recv
    against the recent sending-rate ceiling, and TCP-equation
    consistency of (rate, rtt, p).  [Some r] means drop the report;
    counters, suspicion and journal entries are already updated. *)

val admit :
  t ->
  now:float ->
  round_duration:float ->
  sender_rate:float ->
  rx:int ->
  rate:float ->
  bool
(** Cross-receiver outlier screen over reports that passed {!screen}:
    admits the report's rate into the recent-report window unless its
    log10 rate is a low outlier (median/MAD test; ratio fallback below
    quorum).  [false] means the report must not lower the rate or
    capture the CLR.  The current CLR is subject to the test like any
    other receiver, so a receiver that turns hostile after winning the
    election cannot drag the rate past the outlier band. *)

val may_lead : t -> now:float -> round_duration:float -> int -> bool
(** Track-record gate on CLR candidacy: [true] iff the receiver's first
    contact is at least most of a round old and it has no active
    quarantine or post-quarantine probation (probation doubles with
    each repeat quarantine).  Blocks first-utterance capture by unknown
    receivers and cyclic re-capture by released offenders; costs honest
    newcomers one extra feedback round before they may lead. *)

val may_switch :
  t -> now:float -> sender_rate:float -> candidate_rate:float -> rx:int -> bool
(** CLR flap damping for steal-over switches: hysteresis (the candidate
    must undercut the current rate by {!Config.defense_clr_hysteresis})
    plus the exponential hold-down window.  [false] counts and journals a damped
    switch.  Failover installs (no current CLR) must not be gated. *)

val note_switch : t -> now:float -> round_duration:float -> unit
(** Record an accepted steal-over switch: arms the hold-down, doubling
    it (up to the cap) when switches arrive back to back. *)

val on_round : t -> now:float -> round_duration:float -> sender_rate:float -> unit
(** Per feedback round: decay suspicion, expire stale window entries,
    advance the sending-rate ceiling ring. *)

val is_quarantined : t -> now:float -> int -> bool

val suspicion : t -> int -> float
