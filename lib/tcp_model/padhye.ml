let t_rto_factor = 4.

type cell = { mutable rtt : float; mutable p : float; mutable rate : float }

(* Inlined into both entry points, so [throughput_cell]'s floats stay
   unboxed from its cell to its cell. *)
let[@inline] check_domain ~b ~s ~rtt ~p =
  if b <= 0. then invalid_arg "Padhye: b must be positive";
  if s <= 0 then invalid_arg "Padhye: packet size must be positive";
  if rtt <= 0. then invalid_arg "Padhye: rtt must be positive";
  if p < 0. || p > 1. then invalid_arg "Padhye: p must be in [0,1]"

(* Denominator divided by R:
   f(p) = sqrt(2bp/3) + t_rto_factor * 3*sqrt(3bp/8) * p * (1+32p^2) *)
let[@inline] f ~b p =
  sqrt (2. *. b *. p /. 3.)
  +. (t_rto_factor *. 3. *. sqrt (3. *. b *. p /. 8.) *. p *. (1. +. (32. *. p *. p)))

let[@inline] model ~b ~s ~rtt p =
  check_domain ~b ~s ~rtt ~p;
  if p = 0. then infinity else float_of_int s /. (rtt *. f ~b p)

let throughput ?(b = 1.) ~s ~rtt p = model ~b ~s ~rtt p

let throughput_cell ~b ~s c = c.rate <- model ~b ~s ~rtt:c.rtt c.p

let inverse_loss ?(b = 1.) ~s ~rtt rate =
  if rate <= 0. then invalid_arg "Padhye.inverse_loss: rate must be positive";
  if s <= 0 then invalid_arg "Padhye.inverse_loss: packet size must be positive";
  if rtt <= 0. then invalid_arg "Padhye.inverse_loss: rtt must be positive";
  let lo = 1e-12 and hi = 1. in
  if throughput ~b ~s ~rtt hi >= rate then hi
  else if throughput ~b ~s ~rtt lo <= rate then lo
  else begin
    (* throughput is strictly decreasing in p on (0,1]. *)
    let rec bisect lo hi iter =
      if iter = 0 then 0.5 *. (lo +. hi)
      else begin
        let mid = 0.5 *. (lo +. hi) in
        if throughput ~b ~s ~rtt mid > rate then bisect mid hi (iter - 1)
        else bisect lo mid (iter - 1)
      end
    in
    bisect lo hi 100
  end

let loss_events_per_rtt ?(b = 1.) p =
  if p < 0. || p > 1. then invalid_arg "Padhye.loss_events_per_rtt: p out of range";
  if p = 0. then 0. else p /. f ~b p
