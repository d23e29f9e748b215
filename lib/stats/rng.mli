(** Deterministic pseudo-random number generator.

    A small, fast, splittable PRNG (splitmix64 core) so that every
    simulation run is exactly reproducible from a seed, independent of the
    OCaml stdlib [Random] state.  All simulator components draw from an
    explicit [t] value; there is no global state. *)

type t

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives a statistically independent generator from [t],
    advancing [t].  Use one split stream per flow / receiver so that adding
    components does not perturb the draws seen by others. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val bits53 : t -> int
(** The next 53 random bits as a non-negative int: the draw {!uniform}
    scales, [uniform t = float_of_int (bits53 t) *. 0x1p-53].  A caller
    in another module that scales it itself gets the same value without
    a float crossing the module boundary. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).  [bound] must be
    positive. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val uniform : t -> float
(** [uniform t] draws uniformly from [0, 1) with 53-bit resolution. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [uniform t < p]: the same single draw and the
    same comparison, so the stream and the outcome are those of the
    two-step form, but no float result crosses the module boundary
    (a per-packet loss draw allocates nothing).  The one way to draw a
    Bernoulli outcome. *)

val uniform_pos : t -> float
(** [uniform_pos t] draws uniformly from (0, 1): never returns 0, so it is
    safe as the argument of [log]. *)

val exponential : t -> mean:float -> float
(** [exponential t ~mean] draws from Exp(1/mean). *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)
