let uniform_sample rng ~lo ~hi = lo +. Rng.float rng (hi -. lo)

let bernoulli rng ~p = Rng.bernoulli rng p
