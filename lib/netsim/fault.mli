(** Fault-injection layer: scheduled subtree partitions, packet
    corruption / duplication / reordering injectors, and receiver
    crashes, all driven off the simulation clock.

    One [t] owns the schedules, so an experiment can both script a chaos
    scenario declaratively and report afterwards exactly how much damage
    was injected.  The layer is protocol-agnostic: packet corruption
    takes a caller-supplied mangle function (e.g.
    [Netsim_env.corrupt_packet]) so netsim never learns about payload
    types.

    The damage counts live in the engine's metrics registry as
    [netsim_fault_*_total] counters, where experiments and tests read
    them ([Obs.Metrics.counter_value]).  All
    eight names are registered at {!create}, including
    [netsim_fault_drops_injected_total] and
    [netsim_fault_graceful_leaves_total], which nothing here increments:
    experiment notes print every [netsim_fault_] counter, and the golden
    digests hash the registry. *)

type t

val create : Engine.t -> t
(** A fault plan bound to an engine; injector randomness is split off the
    engine's master stream, so runs stay reproducible per seed. *)

(** {1 Partitions} *)

val partition : t -> links:Link.t list -> from_:float -> until:float -> unit
(** Takes every listed link down over [[from_, until]] and restores it
    afterwards — pass both directions of each cut edge to model a full
    partition of a subtree (data and feedback both blocked). *)

(** {1 Packet-level injectors}

    Injectors attach to a link and fire per packet with the given
    probability.  Several injectors may be installed on the same link;
    they are consulted in installation order and the first one that acts
    on a packet wins.  Installing any injector replaces a fault hook
    installed directly via {!Link.set_fault}. *)

val corrupt :
  t -> Link.t -> rate:float -> mangle:(Stats.Rng.t -> Packet.t -> Packet.t) -> unit
(** Replaces each selected packet by [mangle rng packet] — the returned
    packet continues down the link in its place. *)

val duplicate : t -> Link.t -> rate:float -> unit
(** Transmits each selected packet twice. *)

val reorder : t -> Link.t -> rate:float -> extra_delay:float -> unit
(** Holds each selected packet back for Uniform(0, extra_delay] seconds
    before it enters the link, so later packets overtake it. *)

(** {1 Receiver crashes} *)

val crash : t -> at:float -> (unit -> unit) -> unit
(** Schedules a receiver crash: the callback performs the leave and must
    not emit a leave report (the receiver vanishes silently and the
    sender has to find out via its timeouts). *)
