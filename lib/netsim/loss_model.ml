type t = None_ | Bernoulli of { rng : Stats.Rng.t; p : float }

let none = None_

let bernoulli ~rng ~p =
  if p < 0. || p > 1. then invalid_arg "Loss_model: p out of [0,1]";
  Bernoulli { rng; p }

let drops_packet = function
  | None_ -> false
  | Bernoulli { rng; p } -> p > 0. && Stats.Rng.bernoulli rng p
