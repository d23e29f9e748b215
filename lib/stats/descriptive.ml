let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
    acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let min xs =
  if Array.length xs = 0 then invalid_arg "Descriptive.min: empty array";
  Array.fold_left Stdlib.min xs.(0) xs

let max xs =
  if Array.length xs = 0 then invalid_arg "Descriptive.max: empty array";
  Array.fold_left Stdlib.max xs.(0) xs

let percentile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Descriptive.percentile: empty array";
  if q < 0. || q > 100. then invalid_arg "Descriptive.percentile: q out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let rank = q /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

let median xs = percentile xs 50.

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  p25 : float;
  median : float;
  p75 : float;
  max : float;
}

let summarize xs =
  if Array.length xs = 0 then invalid_arg "Descriptive.summarize: empty array";
  {
    n = Array.length xs;
    mean = mean xs;
    stddev = stddev xs;
    min = min xs;
    p25 = percentile xs 25.;
    median = median xs;
    p75 = percentile xs 75.;
    max = max xs;
  }

let coefficient_of_variation xs =
  let m = mean xs in
  if m = 0. then 0. else stddev xs /. m

let jain_index xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Descriptive.jain_index: empty array";
  let sum = Array.fold_left ( +. ) 0. xs in
  let sq = Array.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
  if sq = 0. then 1. else sum *. sum /. (float_of_int n *. sq)
