(** Sampling helpers over {!Rng}: uniform draws for the scaling and
    feedback models, Bernoulli trials. *)

val uniform_sample : Rng.t -> lo:float -> hi:float -> float

val bernoulli : Rng.t -> p:float -> bool
