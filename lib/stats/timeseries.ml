type t = {
  mutable times : float array;
  mutable values : float array;
  mutable len : int;
}

let create () = { times = Array.make 64 0.; values = Array.make 64 0.; len = 0 }

let ensure_capacity s =
  if s.len = Array.length s.times then begin
    let cap = 2 * Array.length s.times in
    let times = Array.make cap 0. and values = Array.make cap 0. in
    Array.blit s.times 0 times 0 s.len;
    Array.blit s.values 0 values 0 s.len;
    s.times <- times;
    s.values <- values
  end

let points s = Array.init s.len (fun i -> (s.times.(i), s.values.(i)))

let n_bins ~bin ~t_end =
  if bin <= 0. then invalid_arg "Timeseries: bin width must be positive";
  Stdlib.max 1 (int_of_float (ceil (t_end /. bin)))

let bin_sum s ~bin ~t_end =
  let nb = n_bins ~bin ~t_end in
  let sums = Array.make nb 0. in
  for i = 0 to s.len - 1 do
    let t = s.times.(i) in
    if t >= 0. && t < t_end then begin
      let b = Stdlib.min (nb - 1) (int_of_float (t /. bin)) in
      sums.(b) <- sums.(b) +. s.values.(i)
    end
  done;
  Array.init nb (fun b -> ((float_of_int b +. 0.5) *. bin, sums.(b)))

let bin_rate s ~bin ~t_end =
  bin_sum s ~bin ~t_end |> Array.map (fun (t, v) -> (t, v /. bin))

let between s ~t_start ~t_end =
  points s |> Array.to_list
  |> List.filter (fun (t, _) -> t >= t_start && t < t_end)
  |> Array.of_list

module Counter = struct
  type nonrec t = t

  let create = create

  (* Called once per delivered packet: the time is read from the
     caller's clock cell, and no float crosses a function boundary,
     which would box it. *)
  let record s ~clock ~bytes =
    let time = clock.Event_heap.cell_time in
    if s.len > 0 && time < s.times.(s.len - 1) then
      invalid_arg "Timeseries.Counter.record: time must be non-decreasing";
    ensure_capacity s;
    s.times.(s.len) <- time;
    s.values.(s.len) <- float_of_int bytes;
    s.len <- s.len + 1

  let throughput_bps c ~t_start ~t_end =
    if t_end <= t_start then 0.
    else begin
      let bytes =
        between c ~t_start ~t_end
        |> Array.fold_left (fun acc (_, v) -> acc +. v) 0.
      in
      bytes *. 8. /. (t_end -. t_start)
    end

  let rate_series_bps c ~bin ~t_end =
    bin_rate c ~bin ~t_end |> Array.map (fun (t, v) -> (t, v *. 8.))
end
