(** Empirical cumulative distribution functions (Figure 1 of the paper
    compares the CDFs of biased feedback-timer values). *)

type t

val of_samples : float array -> t
(** Builds the empirical CDF from samples.  Raises on the empty array. *)

val eval : t -> float -> float
(** [eval cdf x] = fraction of samples ≤ x. *)
