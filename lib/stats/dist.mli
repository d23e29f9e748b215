(** Sampling helpers over {!Rng}: uniform draws for the scaling and
    feedback models. *)

val uniform_sample : Rng.t -> lo:float -> hi:float -> float
