(** Time-series collection for simulation output.

    The experiment harness records per-flow byte counts against simulated
    time and converts them into throughput-vs-time series exactly like the
    paper's plots (throughput averaged over fixed bins). *)

(** Accumulating byte counters, used by flow monitors. *)
module Counter : sig
  type t

  val create : unit -> t

  val record : t -> clock:Event_heap.time_cell -> bytes:int -> unit
  (** Records [bytes] at time [clock.cell_time].  The time comes in the
      caller's clock cell so the per-packet call boxes no float.
      Raises [Invalid_argument] if that time precedes the last
      recorded one. *)

  val throughput_bps : t -> t_start:float -> t_end:float -> float
  (** Average throughput in bits/s over the window. *)

  val rate_series_bps : t -> bin:float -> t_end:float -> (float * float) array
  (** Binned throughput in bits/s. *)
end
