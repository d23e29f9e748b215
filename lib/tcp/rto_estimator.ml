let initial_rto = 3.
let max_rto = 60.

type t = {
  min_rto : float;
  mutable srtt : float option;
  mutable rttvar : float;
  mutable backoff_exp : int;
}

let create ?(min_rto = 1.0) () =
  if min_rto <= 0. || max_rto < min_rto then
    invalid_arg "Rto_estimator.create: invalid bounds";
  { min_rto; srtt = None; rttvar = 0.; backoff_exp = 0 }

let observe t sample =
  if sample <= 0. then invalid_arg "Rto_estimator.observe: non-positive sample";
  (match t.srtt with
  | None ->
      t.srtt <- Some sample;
      t.rttvar <- sample /. 2.
  | Some srtt ->
      let err = sample -. srtt in
      t.rttvar <- (0.75 *. t.rttvar) +. (0.25 *. abs_float err);
      t.srtt <- Some (srtt +. (0.125 *. err)));
  t.backoff_exp <- 0

let rto t =
  let base =
    match t.srtt with
    | None -> initial_rto
    | Some srtt -> srtt +. (4. *. t.rttvar)
  in
  let scaled = base *. float_of_int (1 lsl t.backoff_exp) in
  Float.min max_rto (Float.max t.min_rto scaled)

let backoff t = if t.backoff_exp < 6 then t.backoff_exp <- t.backoff_exp + 1

let reset_backoff t = t.backoff_exp <- 0

let srtt t = t.srtt

let rttvar t = match t.srtt with None -> None | Some _ -> Some t.rttvar
