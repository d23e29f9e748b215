let uniform_sample rng ~lo ~hi = lo +. Rng.float rng (hi -. lo)
