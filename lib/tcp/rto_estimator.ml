let initial_rto = 3.
let max_rto = 60.

(* The timeout's floor (RFC 2988). *)
let min_rto = 1.0

type t = {
  mutable srtt : float option;
  mutable rttvar : float;
  mutable backoff_exp : int;
}

let create () = { srtt = None; rttvar = 0.; backoff_exp = 0 }

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
  (* Returning a bound itself, not [Float.max min_rto scaled], boxes
     nothing in the common case where the floor applies. *)
  if scaled > max_rto then max_rto else if scaled < min_rto then min_rto else scaled

let backoff t = if t.backoff_exp < 6 then t.backoff_exp <- t.backoff_exp + 1
