(** Stochastic packet-loss models applied on link traversal, independent
    of queue overflow.  Used for the paper's lossy-link experiments
    (Figs 11, 19) where links have configured loss rates; the paper's
    loss is independent per packet.  {!Link.set_loss} swaps a link's
    model at run time. *)

type t

val none : t
(** Never drops. *)

val bernoulli : rng:Stats.Rng.t -> p:float -> t
(** Drops each packet independently with probability [p] ∈ [0,1]. *)

val drops_packet : t -> bool
(** Evaluates the model for one packet; [true] means drop. *)
