(** Declarative chaos plans for the real-time loopback fabric.

    The rt port of the {!Netsim.Fault} repertoire (DESIGN.md §15): a
    [plan] is a list of timed impairment windows that {!apply} compiles
    into ordinary loop timers against a {!Net.t}'s chaos hooks.  Because
    every mutation fires from a loop timer and every random choice (churn
    victim selection) draws from a stream split off the loop's master
    RNG at [apply] time, a turbo-mode chaos run is exactly as
    deterministic as a clean one — two runs with the same seed and the
    same plan are byte-identical.

    All times in a [plan] are {e relative to the moment [apply] is
    called}, which preserves the runtime's time-translation invariance:
    shifting the loop epoch shifts every chaos event with it.

    Each fired event is journaled under component ["rt.chaos"]
    ({!Obs.Journal.Fault}, kinds [flap_down]/[flap_up], [partition]/
    [partition_heal], [churn_down]/[churn_up], [loss_burst]/
    [loss_burst_end], [delay_shift]/[delay_shift_end]) and counted under
    [tfmcc_rt_chaos_events_total{kind}]. *)

type spec =
  | Flap of { down_at : float; up_at : float }
      (** The whole fabric drops every frame in [down_at, up_at). *)
  | Partition of { endpoints : int list; from_ : float; until : float }
      (** The listed endpoints are unreachable (frames from {e or} to
          them are dropped) for the window.  Blocks are refcounted by
          {!Net.block}, so overlapping windows compose. *)
  | Loss_burst of { from_ : float; until : float; loss : float }
      (** Raises the fabric's Bernoulli loss to [loss] for the window,
          then restores the creation-time rate. *)
  | Delay_shift of { from_ : float; until : float; delay : float; jitter : float }
      (** Replaces base delay/jitter for the window (path migration,
          bufferbloat episodes), then restores. *)
  | Churn of {
      sessions : int list;  (** [[]] means every session on the fabric. *)
      fraction : float;  (** fraction of joined members hit per cycle *)
      from_ : float;
      until : float;
      period : float;  (** one churn cycle every [period] seconds *)
      down_for : float;  (** how long each victim stays unreachable *)
    }
      (** Receiver join/leave churn: every [period], a seeded sample of
          [fraction] of each targeted session's joined members (at least
          one) goes dark for [down_for] seconds (clamped to the window
          end).  Membership is sampled at cycle time, and only group
          members — receivers — are ever picked, never a sender. *)

type plan = spec list

type t
(** An applied plan: the handle holds the live event counters. *)

val validate : plan -> unit
(** @raise Invalid_argument on an empty window, a probability outside
    [0,1], a non-positive period, or a non-finite time. *)

val apply : Net.t -> plan -> t
(** Validates and arms the plan against the fabric, relative to the
    loop's current time.  Chaos events then fire as the loop runs. *)

val describe : plan -> string
(** One-line human summary, e.g. for the CLI banner. *)

(* Events fired so far (start-of-window events; heals are not counted). *)

val flaps : t -> int

val partitions : t -> int

val churn_blocks : t -> int
(** Individual endpoint take-downs across all churn cycles. *)

val profile_shifts : t -> int
(** Loss-burst plus delay-shift windows entered. *)
