(** Summary statistics over float samples. *)

val mean : float array -> float
(** Arithmetic mean; 0 for the empty array. *)

val stddev : float array -> float
(** Square root of the unbiased sample variance; 0 when fewer than two
    samples. *)

val median : float array -> float
(** The 50th percentile, by linear interpolation between order
    statistics (as are {!summary}'s quartiles).  Raises
    [Invalid_argument] on the empty array. *)

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
