let exponential_sample rng ~mean = Rng.exponential rng ~mean

let exponential_cdf ~mean x = if x <= 0. then 0. else 1. -. exp (-.x /. mean)

(* Marsaglia & Tsang (2000).  For shape >= 1 directly; for shape < 1 boost
   via Gamma(shape+1) * U^(1/shape). *)
let rec gamma_sample rng ~shape ~scale =
  if shape <= 0. then invalid_arg "Dist.gamma_sample: shape must be positive";
  if shape < 1. then begin
    let u = Rng.uniform_pos rng in
    gamma_sample rng ~shape:(shape +. 1.) ~scale *. (u ** (1. /. shape))
  end
  else begin
    let d = shape -. (1. /. 3.) in
    let c = 1. /. sqrt (9. *. d) in
    let rec normal () =
      (* Box–Muller; one value is enough here. *)
      let u1 = Rng.uniform_pos rng and u2 = Rng.uniform rng in
      let z = sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2) in
      if Float.is_nan z then normal () else z
    in
    let rec loop () =
      let x = normal () in
      let v = (1. +. (c *. x)) ** 3. in
      if v <= 0. then loop ()
      else
        let u = Rng.uniform_pos rng in
        let x2 = x *. x in
        if u < 1. -. (0.0331 *. x2 *. x2) then d *. v *. scale
        else if log u < (0.5 *. x2) +. (d *. (1. -. v +. log v)) then
          d *. v *. scale
        else loop ()
    in
    loop ()
  end

let gamma_cdf ~shape ~scale x =
  if x <= 0. then 0. else Special.gamma_p shape (x /. scale)

let gamma_mean_of_min ~shape ~scale ~n ~samples rng =
  if n <= 0 then invalid_arg "Dist.gamma_mean_of_min: n must be positive";
  let total = ref 0. in
  for _ = 1 to samples do
    let m = ref infinity in
    for _ = 1 to n do
      let x = gamma_sample rng ~shape ~scale in
      if x < !m then m := x
    done;
    total := !total +. !m
  done;
  !total /. float_of_int samples

let uniform_sample rng ~lo ~hi = lo +. Rng.float rng (hi -. lo)

let bernoulli rng ~p = Rng.bernoulli rng p

let pareto_sample rng ~shape ~scale =
  let u = Rng.uniform_pos rng in
  scale /. (u ** (1. /. shape))
