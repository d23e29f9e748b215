(** Summary statistics over float samples. *)

val mean : float array -> float
(** Arithmetic mean; 0 for the empty array. *)

val variance : float array -> float
(** Unbiased sample variance; 0 when fewer than two samples. *)

val stddev : float array -> float

val min : float array -> float
(** Raises [Invalid_argument] on the empty array. *)

val max : float array -> float
(** Raises [Invalid_argument] on the empty array. *)

val percentile : float array -> float -> float
(** [percentile xs q] with [q] in [0,100]; linear interpolation between
    order statistics.  Raises on the empty array. *)

val median : float array -> float

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  p25 : float;
  median : float;
  p75 : float;
  max : float;
}

val summarize : float array -> summary
(** Raises [Invalid_argument] on the empty array. *)

val coefficient_of_variation : float array -> float
(** stddev / mean; smoothness metric used when comparing TFMCC's rate to
    TCP's sawtooth. 0 when the mean is 0. *)

val jain_index : float array -> float
(** Jain's fairness index (Σx)²/(n·Σx²) over per-flow allocations:
    1 = perfectly fair, 1/n = one flow takes everything.  Raises on the
    empty array. *)
