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

val create : env:Env.t -> session:int -> parent:int -> t
(** [parent] is the node id reports are forwarded to (another
    aggregator or the sender).  Subtree reports arrive via {!deliver_report}.
    The aggregation interval is 0.2 s: the best report collected during
    it is forwarded when it expires, well below the feedback round
    duration.  Does not consume an RNG stream. *)

val deliver_report : t -> Wire.report -> unit
(** Feeds one inbound report: reports of this session enter the
    aggregation window; others are ignored. *)

val reports_in : t -> int
(** Reports received from the subtree. *)
