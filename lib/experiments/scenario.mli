(** Shared topology builders and helpers for the paper's packet-level
    experiments (§4, App. D). *)

(** Fidelity level: [Quick] runs shrunken receiver counts / durations so
    the whole suite finishes in minutes; [Full] uses the paper's
    parameters. *)
type mode = Quick | Full

val scale : mode -> quick:'a -> full:'a -> 'a

type t = {
  engine : Netsim.Engine.t;
  topo : Netsim.Topology.t;
  monitor : Netsim.Monitor.t;
  obs : Obs.Sink.t;  (** the sink every component of this scenario reports into *)
}

val with_cell :
  ?checks:Check.Invariant.t ->
  ?watchdog:Netsim.Watchdog.config ->
  Obs.Sink.t ->
  (unit -> 'a) ->
  'a
(** [with_cell ?checks ?watchdog sink f] runs [f] as one experiment
    cell: every scenario built inside it (without an explicit [?obs])
    attaches [sink] to its engine; with [checks], it also registers its
    engine ({!Check.Invariant.watch_engine}), key links and TFMCC
    session with that checker; with [watchdog], every engine {!base}
    builds gets the config's probes armed ({!Netsim.Watchdog.install}).
    Lets callers with a fixed entry-point signature ({!Registry.run})
    observe, check and bound a run without widening every experiment.
    {!Sweep.run_cell} is the one caller outside the tests.  Restores
    the previous cell on return or exception.

    The installation is domain-local: each {!Par} sweep worker installs
    and observes only its own cell.  Sinks are single-domain objects —
    never install one domain's sink from another. *)

val ambient_obs : unit -> Obs.Sink.t option
(** The sink of the innermost active {!with_cell}, if any.  For
    experiments that deliberately run sub-scenarios on private sinks
    (the Byzantine robustness cells) and still want to surface summary
    counters through the CLI's [--json] / [--metrics-out] export. *)

val base : ?seed:int -> ?obs:Obs.Sink.t -> unit -> t
(** Fresh engine + topology + monitor.  [obs] defaults to the sink
    installed by {!with_cell}, else a private enabled sink (so protocol
    journals and registry metrics are always being collected; pass
    [Obs.Sink.null] explicitly to opt out, e.g. in benchmarks). *)

val tfmcc_flow : int
(** Accounting tag of TFMCC data in all scenarios (= session id). *)

val tcp_flow : int -> int
(** Accounting tag of the i-th TCP flow (0-based). *)

(** A TCP connection bundled with its sink. *)
type tcp_pair = { source : Tcp.Tcp_source.t; sink : Tcp.Tcp_sink.t; flow : int }

val add_tcp :
  t -> conn:int -> flow:int -> src:Netsim.Node.t -> dst:Netsim.Node.t ->
  at:float -> tcp_pair
(** Creates source+sink, watches the sink node for [flow], starts at
    [at]. *)

(** Dumbbell: TFMCC sender and [n_tcp] TCP senders on the left, the TFMCC
    receivers and TCP sinks on the right, one shared bottleneck.  Access
    links are 10× the bottleneck with 1 ms delay. *)
type dumbbell = {
  sc : t;
  session : Tfmcc_core.Session.t;
  tcp : tcp_pair list;
  bottleneck : Netsim.Link.t;
  left_router : Netsim.Node.t;
  right_router : Netsim.Node.t;
  sender_node : Netsim.Node.t;  (** the TFMCC sender's access node *)
}

val dumbbell :
  ?seed:int ->
  ?obs:Obs.Sink.t ->
  ?cfg:Tfmcc_core.Config.t ->
  bottleneck_bps:float ->
  delay_s:float ->
  ?queue_capacity:int ->
  n_tfmcc_rx:int ->
  n_tcp:int ->
  unit ->
  dumbbell
(** TCP flows start at time 0; TFMCC is created but not started — call
    [Tfmcc_core.Session.start]. *)

(** Star of per-receiver links: TFMCC sender behind a fat 5 ms uplink to
    a hub; receiver i sits behind its own link with the given loss model /
    delay / bandwidth.  Optionally one TCP, started at time 0, crosses each
    receiver link (its source on a per-receiver side node). *)
type star = {
  s_sc : t;
  s_session : Tfmcc_core.Session.t;
  s_hub : Netsim.Node.t;
  s_rx_nodes : Netsim.Node.t array;
  s_rx_links : (Netsim.Link.t * Netsim.Link.t) array;  (** (hub→rx, rx→hub) *)
  s_tcp : tcp_pair array;  (** empty if [with_tcp] is false *)
}

val star :
  ?seed:int ->
  ?obs:Obs.Sink.t ->
  ?cfg:Tfmcc_core.Config.t ->
  ?uplink_bps:float ->
  link_bps:float ->
  link_delays:float array ->
  ?link_losses:float array ->
  ?return_losses:float array ->
  ?with_tcp:bool ->
  unit ->
  star
(** One receiver per entry of [link_delays], every link with a 50-packet
    queue.  [link_losses] (same length) puts Bernoulli loss on the
    hub→receiver direction; [return_losses] on the receiver→hub
    direction (lossy report/ACK paths, Fig. 19).  TFMCC receivers are
    created but not joined. *)

val run_until : t -> float -> unit

val sample_every :
  t -> dt:float -> t_end:float -> (float -> unit) -> unit
(** Schedules [f now] at dt, 2dt, … ≤ t_end (call before running). *)

val throughput_series :
  t -> flow:int -> bin:float -> t_end:float -> (float * float) array
(** Binned throughput in kbit/s (the unit of the paper's plots). *)

val mean_throughput_kbps : t -> flow:int -> t_start:float -> t_end:float -> float
