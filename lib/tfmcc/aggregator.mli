(** In-network feedback aggregation (paper §6.1, Future Work).

    An aggregator sits on an interior node of the distribution tree.
    Receivers in its subtree unicast their reports to it (via the
    receiver's [report_to]); the aggregator retains only the most
    restrictive report seen within a hold interval — loss reports
    dominate rate-only reports, lower rates dominate higher — and
    forwards that single report to its parent (another aggregator or the
    sender).  Leave reports pass through immediately.

    The forwarded report keeps the originating receiver's identity and
    timestamps, so the sender's CLR election, echo-based RTT measurement
    and rate rescaling work end-to-end unchanged.  With a tree in place,
    end-to-end timer suppression becomes unnecessary
    ([Config.use_suppression = false]). *)

type t

val create :
  env:Env.t -> session:int -> parent:int -> ?hold:float -> ?cfg:Config.t -> unit -> t
(** [parent] is the node id reports are forwarded to (another
    aggregator or the sender).  Subtree reports arrive via {!deliver}.
    [hold] is the aggregation interval (default 0.2 s): the best report
    collected during it is forwarded when it expires.  The interval
    should be well below the feedback round duration.  Does not consume
    an RNG stream.

    When [cfg] is supplied and has [defense_enabled], reports whose
    claimed rate is inconsistent with the TCP equation at their own
    (rtt, p) — beyond {!Config.defense_equation_slack} — are rejected
    before aggregation (DESIGN.md §10): a lying subtree report must not
    displace the honest minimum inside the hold window. *)

val deliver : t -> Wire.msg -> unit
(** Feeds one inbound message: reports of this session enter the
    aggregation window; everything else is ignored. *)

val reports_in : t -> int
(** Reports received from the subtree. *)

val reports_out : t -> int
(** Aggregated reports forwarded to the parent. *)

val plausibility_rejected : t -> int
(** Reports dropped by the equation-consistency screen (0 without a
    defense-enabled [cfg]). *)

val node_id : t -> int
