(** Declarative chaos plans for the real-time transport ({!Net}, on
    either of its ways).

    Transport flaps and receiver churn (DESIGN.md §15): a [plan] is a
    list of timed impairment windows that {!apply} compiles
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
    ({!Obs.Journal.Fault}, kinds [flap_down]/[flap_up] and
    [churn_down]/[churn_up]) and counted under
    [tfmcc_rt_chaos_events_total{kind}]. *)

type spec =
  | Flap of { down_at : float; up_at : float }
      (** The whole fabric drops every frame in [down_at, up_at). *)
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
          members — receivers — are ever picked, never a sender.  Blocks
          are refcounted by {!Net.block}, so a victim that a harness
          [Partition_clr] also holds stays dark until both release it. *)

type plan = spec list

type t
(** An applied plan. *)

val validate : plan -> unit
(** @raise Invalid_argument on an empty window, a churn fraction
    outside (0,1], a non-positive period, or a non-finite time. *)

val apply : Net.t -> plan -> t
(** Validates and arms the plan against the fabric, relative to the
    loop's current time.  Chaos events then fire as the loop runs. *)

val describe : plan -> string
(** One-line human summary, e.g. for the CLI banner. *)
