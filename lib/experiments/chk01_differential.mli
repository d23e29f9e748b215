(** Differential oracle: TFMCC with a single receiver must track unicast
    TFRC on the same dumbbell (DESIGN.md §11). *)

type comparison = {
  label : string;
  tfmcc_kbps : float;
  tfrc_kbps : float;
  rel_err : float;  (** relative to the TFRC throughput *)
}

val compare_pair :
  bottleneck_bps:float -> delay_s:float -> t_end:float -> unit -> comparison
(** One oracle cell at seed 42: runs TFMCC (1 receiver, no TCP) and a
    geometrically identical TFRC dumbbell, with a 20-packet bottleneck
    queue, for [t_end] seconds and compares mean throughput after a
    [t_end]/3 warmup.  Also the body of the QCheck property over
    randomized configurations. *)

val tolerance : float
(** Acceptance threshold on {!comparison.rel_err} (0.10). *)

val run : mode:Scenario.mode -> seed:int -> Series.t list
