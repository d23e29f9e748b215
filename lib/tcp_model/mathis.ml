let c = sqrt 1.5

let check ~s ~rtt =
  if s <= 0 then invalid_arg "Mathis: packet size must be positive";
  if rtt <= 0. then invalid_arg "Mathis: rtt must be positive"

let inverse_loss ~s ~rtt ~rate =
  check ~s ~rtt;
  if rate <= 0. then invalid_arg "Mathis.inverse_loss: rate must be positive";
  let x = c *. float_of_int s /. (rtt *. rate) in
  Float.min 1. (Float.max 1e-12 (x *. x))

let initial_loss_interval ~s ~rtt ~rate = 1. /. inverse_loss ~s ~rtt ~rate
