(** TCP receiver: tracks in-order delivery and returns one cumulative ACK
    per arriving data segment (no delayed ACKs, matching the paper's
    setup where TCP sensitivity to nearly-full drop-tail queues stems
    from back-to-back sends). *)

type t

val create : Netsim.Topology.t -> conn:int -> node:Netsim.Node.t -> t
(** Attaches the sink to [node].  ACK packets carry the accounting tag
    -1, which no experiment monitor watches. *)

val next_expected : t -> int
(** Lowest sequence number not yet received in order. *)

val segments_received : t -> int
(** Total data segments that arrived (in or out of order). *)
