(** Time-series collection for simulation output.

    The experiment harness records per-flow byte counts against simulated
    time and converts them into throughput-vs-time series exactly like the
    paper's plots (throughput averaged over fixed bins). *)

type t
(** A mutable, append-only series of (time, value) points.  Times must be
    appended in non-decreasing order. *)

val create : unit -> t

val add : t -> time:float -> value:float -> unit
(** Raises [Invalid_argument] if [time] precedes the last appended time. *)

val bin_sum : t -> bin:float -> t_end:float -> (float * float) array
(** [bin_sum s ~bin ~t_end] sums values into bins of width [bin] covering
    [0, t_end); each output point is (bin centre, sum of values in bin). *)

val bin_rate : t -> bin:float -> t_end:float -> (float * float) array
(** Like {!bin_sum} but divides each bin by its width: values are treated
    as increments (e.g. bytes) and the output is a rate (e.g. bytes/s). *)

val between : t -> t_start:float -> t_end:float -> (float * float) array
(** Points with [t_start <= time < t_end]. *)

(** Accumulating byte counters, used by flow monitors. *)
module Counter : sig
  type t

  val create : unit -> t

  val record : t -> clock:Event_heap.time_cell -> bytes:int -> unit
  (** Records [bytes] at time [clock.cell_time].  The time comes in the
      caller's clock cell so the per-packet call boxes no float.
      Raises [Invalid_argument] if that time precedes the last
      recorded one. *)

  val total_bytes : t -> int

  val throughput_bps : t -> t_start:float -> t_end:float -> float
  (** Average throughput in bits/s over the window. *)

  val rate_series_bps : t -> bin:float -> t_end:float -> (float * float) array
  (** Binned throughput in bits/s. *)
end
