(** Queueing disciplines for link egress buffers.

    The paper's simulations use drop-tail FIFO queues ("to ensure
    acceptable behavior in the current Internet"); RED is provided for the
    ablation the paper alludes to (fairness improves under RED). *)

type t

val droptail : capacity_pkts:int -> t
(** FIFO with a hard limit of [capacity_pkts] packets (ns-2 style). *)

val red : rng:Stats.Rng.t -> capacity_pkts:int -> t
(** Random Early Detection (Floyd & Jacobson 1993) over a FIFO of
    [capacity_pkts], with thresholds at a quarter and three quarters of
    capacity (in packets), a maximum early-drop probability of 0.1 and
    a queue-average EWMA weight of 0.002. *)

val enqueue : t -> Packet.t -> bool
(** [enqueue q p] accepts or drops [p]; [false] means dropped. *)

val is_empty : t -> bool

val dequeue_exn : t -> Packet.t
(** Removes and returns the oldest packet without allocating; raises
    [Invalid_argument] on an empty queue (guard with {!is_empty}). *)

val length : t -> int
(** Current queue length in packets. *)
