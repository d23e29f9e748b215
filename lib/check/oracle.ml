let relative_error ~expected ~actual =
  if expected = 0. && actual = 0. then 0.
  else abs_float (actual -. expected) /. Float.max (abs_float expected) 1e-12

let equation_gap ~b ~s ~rtt ~p ~rate =
  if
    p <= 0. || p > 1.
    || not (Float.is_finite rtt)
    || rtt <= 0.
    || not (Float.is_finite rate)
  then infinity
  else
    let expected = Tcp_model.Padhye.throughput ~b ~s ~rtt p in
    if not (Float.is_finite expected) then infinity
    else relative_error ~expected ~actual:rate
