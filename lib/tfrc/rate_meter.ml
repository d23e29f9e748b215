(* Samples live in a ring of parallel arrays (unboxed float times next
   to int byte counts) instead of a queue of records: recording an
   arrival allocates nothing, which matters because every receiver runs
   this once per data packet.  The scalar float state sits in all-float
   records — they store raw doubles, so the per-packet [last_time] and
   window updates are plain stores rather than fresh float boxes. *)

type window = { mutable seconds : float }

type scalars = {
  mutable first_time : float;  (* nan until the first arrival *)
  mutable last_time : float;
}

type t = {
  clock : Event_heap.time_cell;
  win : window;
  sc : scalars;
  mutable times : float array;  (* ring, oldest at [head] *)
  mutable sizes : int array;
  mutable head : int;
  mutable count : int;
  mutable in_window_bytes : int;
}

let initial_capacity = 64

(* [w > 0.] is false for NaN, and [w < infinity] rules out infinity. *)
let valid_window w = w > 0. && w < infinity

let create ~clock ?(window = 1.) () =
  if not (valid_window window) then
    invalid_arg "Rate_meter.create: window must be finite and positive";
  {
    clock;
    win = { seconds = window };
    sc = { first_time = nan; last_time = neg_infinity };
    times = Array.make initial_capacity 0.;
    sizes = Array.make initial_capacity 0;
    head = 0;
    count = 0;
    in_window_bytes = 0;
  }

let window t = t.win

(* Drops the arrivals older than the window.  Reads the time and the
   window itself rather than taking them as arguments, which would box
   them. *)
let expire t =
  let w = t.win.seconds in
  if not (valid_window w) then
    invalid_arg "Rate_meter: window must be finite and positive";
  let horizon = t.clock.Event_heap.cell_time -. w in
  let cap = Array.length t.times in
  let continue = ref true in
  while !continue && t.count > 0 do
    let i = t.head in
    if Array.unsafe_get t.times i < horizon then begin
      t.in_window_bytes <- t.in_window_bytes - Array.unsafe_get t.sizes i;
      t.head <- (i + 1) mod cap;
      t.count <- t.count - 1
    end
    else continue := false
  done

let grow t =
  let cap = Array.length t.times in
  let times = Array.make (2 * cap) 0. in
  let sizes = Array.make (2 * cap) 0 in
  for i = 0 to t.count - 1 do
    let j = (t.head + i) mod cap in
    times.(i) <- t.times.(j);
    sizes.(i) <- t.sizes.(j)
  done;
  t.times <- times;
  t.sizes <- sizes;
  t.head <- 0

let record t ~bytes =
  let now = t.clock.Event_heap.cell_time in
  if not (Float.is_finite now) then invalid_arg "Rate_meter.record: non-finite time";
  if now < t.sc.last_time then
    invalid_arg "Rate_meter.record: time went backwards";
  t.sc.last_time <- now;
  if Float.is_nan t.sc.first_time then t.sc.first_time <- now;
  if t.count = Array.length t.times then grow t;
  let i = (t.head + t.count) mod Array.length t.times in
  Array.unsafe_set t.times i now;
  Array.unsafe_set t.sizes i bytes;
  t.count <- t.count + 1;
  t.in_window_bytes <- t.in_window_bytes + bytes;
  expire t

let rate_bytes_per_s t =
  if Float.is_nan t.sc.first_time then 0.
  else begin
    expire t;
    (* Floor the averaging span at half the window: a couple of
       back-to-back arrivals must not read as an enormous rate (the
       slowstart target is twice this measurement). *)
    let w = t.win.seconds in
    let span =
      Float.max
        (Float.min w (t.clock.Event_heap.cell_time -. t.sc.first_time))
        (w /. 2.)
    in
    float_of_int t.in_window_bytes /. span
  end
