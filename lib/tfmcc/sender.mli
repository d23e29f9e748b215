(** TFMCC sender.

    Paces multicast data packets at rate X_send; every packet carries the
    feedback-round bookkeeping, one receiver-report echo (priority order
    of §2.4.2) and the lowest report echoed so far this round (for timer
    suppression).

    Rate control (§2.2): an incoming report below the current rate makes
    its sender the current limiting receiver (CLR) and the rate drops to
    it immediately; increases happen only on CLR feedback and are capped
    at {!Config.increase_limit_packets} packets per CLR RTT.  Reports
    lacking a valid RTT are rescaled using a sender-side RTT measurement
    (§2.4.4).
    Slowstart (§2.6) targets twice the minimum reported receive rate,
    approached over one RTT, and ends at the first loss report.  A CLR
    silent for {!Config.clr_timeout_rounds} feedback rounds (or sending an
    explicit leave) is dropped, after which the rate ramps up at the
    capped rate until a new report arrives (so the correct new CLR
    reveals itself).  Optionally the previous CLR is remembered for
    conservative switch-back (App. C).

    The sender is runtime-agnostic: it talks to the world only through
    its {!Env.t} (clock, timers, datagram send, observability) and
    receives inbound reports via {!deliver_report} from whichever environment
    hosts it — the simulator adapter ([Netsim_env]) or the real-time
    loopback/UDP runtime ([Rt]). *)

type t

val create :
  env:Env.t -> cfg:Config.t -> session:int -> ?initial_rate:float -> unit -> t
(** The sender's node id is [env.id]; data packets carry [session] as
    their accounting flow tag.  [initial_rate] defaults to one packet per
    initial RTT.  Calls [env.split_rng] exactly once. *)

val deliver_report : t -> Wire.report -> unit
(** Feeds one inbound report to the sender.  Reports for this session
    are validated (field sanity, round staleness, defense screen) and
    then drive rate control; reports for a foreign session count as
    malformed.  No-op while stopped. *)

val start : t -> at:float -> unit

val stop : t -> unit

val rate_bytes_per_s : t -> float

val clr : t -> int option
(** Node id of the current limiting receiver. *)

val clr_rate : t -> float option
(** Last (sender-adjusted) rate the current CLR reported, bytes/s.  In
    congestion avoidance with a live CLR the sending rate never exceeds
    this value (modulo the one-packet-per-RTT floor) — the ceiling the
    runtime invariant checker asserts. *)

val in_slowstart : t -> bool

val round : t -> int

val round_duration : t -> float

val max_rtt : t -> float
(** Current R_max estimate used for round durations. *)

val packets_sent : t -> int

val reports_received : t -> int
(** Validated reports accepted.  Inbound reports rejected before
    touching any sender state — invalid field values (NaN/negative RTT,
    p outside [0,1], non-finite rates), implausible rounds (future, or
    older than the CLR timeout) and unknown session ids — count under
    [tfmcc_sender_malformed_drops_total]. *)

val clr_changes : t -> int

val clr_timeouts : t -> int

val is_starved : t -> bool
(** Whether the sender currently sits in the feedback-starvation decay
    (no receiver heard for {!Config.starvation_rounds} feedback rounds). *)

val feedback_starvations : t -> int
(** Transitions into the starved state so far. *)

val clr_failovers : t -> int
(** Times a replacement CLR was installed after the previous one was lost
    to silence (timeout) or an explicit leave — i.e. completed
    failovers, as opposed to {!clr_timeouts} which counts the losses. *)
