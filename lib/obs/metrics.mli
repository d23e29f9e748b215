(** Typed metrics registry: labelled counters, gauges and histograms.

    One registry serves a whole simulation.  Components look their
    instruments up once at construction time ({!counter} / {!gauge} /
    {!histogram} are amortized O(1) hash lookups) and then record through
    the returned handle with a plain field update — no hashing, no
    allocation on the hot path.

    A registry created with {!null} is a disabled sink: handles it hands
    out are valid and O(1) to record into, but nothing is retained and
    its JSON is empty, so instrumented code pays only the cost of one
    mutable-field update when observability is off. *)

type t

type labels = (string * string) list
(** Label pairs; order is irrelevant (normalized internally). *)

module Counter : sig
  type t

  val inc : t -> unit

  val add : t -> int -> unit
end

module Gauge : sig
  type t

  val set : t -> float -> unit
end

module Histogram : sig
  type t

  val observe : t -> float array -> int -> unit
  (** [observe h a i] records the sample [a.(i)] in O(1), updating
      count, sum, min and max.  The sample is read from the caller's
      array (a hot path's own ring, say) so the call boxes no float. *)
end

val create : unit -> t

val null : t
(** The shared disabled registry: instruments obtained from it are
    unregistered dummies. *)

val counter : t -> ?labels:labels -> string -> Counter.t
(** Registers (or finds) the counter [name] with [labels].  Raises
    [Invalid_argument] if the name+labels is already registered as a
    different metric kind. *)

val gauge : t -> ?labels:labels -> string -> Gauge.t

val histogram : t -> ?labels:labels -> string -> Histogram.t

val counter_value : t -> string -> int
(** Current value of the unlabelled counter [name]; 0 when absent (or
    the registry is the null sink).  {!labelled_values} reads labelled
    ones. *)

val sum_counters : t -> string -> int
(** Sum of the counter [name] over every label set it is registered
    with. *)

val labelled_values : t -> string -> (labels * int) list
(** Every label set the counter [name] is registered with, paired with
    its current value, sorted — the per-kind breakdown of a labelled
    counter family (e.g. [tfmcc_rt_send_error_total]). *)

val describe : ?prefix:string -> t -> string
(** One-line ["name{k=v}=n, ..."] rendering of every counter whose name
    starts with [prefix] (default: all), for human-readable summaries.
    ["(no metrics)"] when nothing matches. *)

val to_json : t -> Json.t
(** [[{"name":..,"labels":{..},"kind":..,"value"|"count"/"sum"/..}]],
    one object per registered instrument, sorted by (name, labels). *)
