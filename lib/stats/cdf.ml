type t = { sorted : float array }

let of_samples xs =
  if Array.length xs = 0 then invalid_arg "Cdf.of_samples: empty array";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  { sorted }

(* Binary search: number of samples <= x. *)
let count_le sorted x =
  let n = Array.length sorted in
  let rec loop lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if sorted.(mid) <= x then loop (mid + 1) hi else loop lo mid
    end
  in
  loop 0 n

let eval t x =
  float_of_int (count_le t.sorted x) /. float_of_int (Array.length t.sorted)
