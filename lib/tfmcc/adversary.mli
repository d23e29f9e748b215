(** Byzantine receiver strategies for the robustness suite
    (DESIGN.md §10).

    An adversary joins the multicast group, snoops data-packet headers,
    and unicasts forged — but syntactically valid — receiver reports to
    the sender.  Single-rate multicast congestion control follows its
    most-limited receiver, so one consistent liar can capture the whole
    group's rate; these agents reproduce the canonical attacks so the
    {!Defense} layer can be measured against them (experiments
    rob04–rob07). *)

type strategy =
  | Understater of { factor : float }
      (** every round, claim a calculated rate of [factor] × the
          advertised sending rate (with a plausible RTT and a TCP-
          equation-consistent loss rate) — the group-capture attack *)
  | Overstater of { factor : float }
      (** claim no loss ever and a receive rate of [factor] × the
          advertised rate — a congested receiver hiding its losses *)
  | Rtt_liar of { rtt : float; factor : float }
      (** claim RTT [rtt] (forged, typically far below the true path
          RTT) and undercut the advertised rate by [factor] every round;
          the compounding decay captures the CLR election *)
  | Spammer of { factor : float }
      (** immediate feedback on every data packet at [factor] × the
          advertised rate: monopolizes the suppression echo so honest
          receivers cancel their reports *)

type t

val create :
  env:Env.t -> cfg:Config.t -> session:int -> sender:int -> strategy:strategy -> unit -> t
(** Joins the session's multicast group immediately ([env.join]);
    snooped data packets arrive via {!deliver_data}.  Forged reports start
    flowing after {!start}.  Does not consume an RNG stream. *)

val deliver_data : t -> Wire.data -> unit
(** Snoops one inbound data packet: headers of this session update the
    forged-report state (and trigger a report per strategy once
    started); other sessions' data is ignored. *)

val start : t -> at:float -> unit

val reports_sent : t -> int
