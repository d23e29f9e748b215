let clamp lo hi x = Float.max lo (Float.min hi x)

let normalized_ratio r = (clamp 0.5 0.9 r -. 0.5) /. 0.4

(* max(T'(1 + log_N x), 0) for x ~ U(0,1]. *)
let exponential_part rng ~t ~n_estimate =
  let x = Stats.Rng.uniform_pos rng in
  let v = t *. (1. +. (log x /. log (float_of_int n_estimate))) in
  Float.max 0. v

let draw rng ~bias ~t_max ~delta ~n_estimate ~ratio =
  if t_max <= 0. then invalid_arg "Feedback_timer.draw: t_max must be positive";
  if n_estimate < 2 then invalid_arg "Feedback_timer.draw: n_estimate must be >= 2";
  let ratio = clamp 0. 1. ratio in
  match (bias : Config.bias) with
  | Unbiased -> exponential_part rng ~t:t_max ~n_estimate
  | Offset ->
      (delta *. t_max *. ratio)
      +. exponential_part rng ~t:((1. -. delta) *. t_max) ~n_estimate
  | Modified_offset ->
      (delta *. t_max *. normalized_ratio ratio)
      +. exponential_part rng ~t:((1. -. delta) *. t_max) ~n_estimate
  | Modified_n ->
      let n' = Float.max 2. (float_of_int n_estimate ** ratio) in
      let x = Stats.Rng.uniform_pos rng in
      Float.max 0. (t_max *. (1. +. (log x /. log n')))

(* Real-clock hazard guard (lib/rt): a timer callback that fires late —
   GC pause, scheduler stall, laptop lid — can hand the protocol a round
   window that already collapsed to zero or below; [draw] treats that as
   a programming error and raises, which is right for the simulator but
   would crash a live session over an OS hiccup.  The clamped variant
   substitutes a small positive floor, reports the anomaly, and draws
   normally — identical to [draw] (same RNG consumption) on every valid
   input. *)
let t_max_floor = 1e-3

let draw_clamped rng ~on_anomaly ~bias ~t_max ~delta ~n_estimate ~ratio =
  let t_max =
    if Float.is_finite t_max && t_max > 0. then t_max
    else begin
      on_anomaly ();
      t_max_floor
    end
  in
  draw rng ~bias ~t_max ~delta ~n_estimate ~ratio

let should_cancel ~zeta ~own_rate ~echoed_rate =
  echoed_rate -. own_rate <= zeta *. echoed_rate

let round_duration ~(cfg : Config.t) ~max_rtt ~rate =
  if max_rtt <= 0. then invalid_arg "Feedback_timer.round_duration: max_rtt";
  if rate <= 0. then invalid_arg "Feedback_timer.round_duration: rate";
  Float.max
    (Config.round_rtt_factor *. max_rtt)
    (float_of_int (Config.round_min_packets + 1) *. float_of_int cfg.packet_size /. rate)

(* Same guard for [round_duration]: a non-monotonic clock can briefly
   present a zero/negative R_max to a live sender. *)
let round_duration_clamped ~on_anomaly ~(cfg : Config.t) ~max_rtt ~rate =
  let bad v = not (Float.is_finite v) || v <= 0. in
  let max_rtt, rate =
    if bad max_rtt || bad rate then begin
      on_anomaly ();
      ((if bad max_rtt then cfg.rtt_initial else max_rtt),
       if bad rate then float_of_int cfg.packet_size else rate)
    end
    else (max_rtt, rate)
  in
  round_duration ~cfg ~max_rtt ~rate

(* Timer CDF for the unbiased scheme over [0, T']:
   F(y) = N^(y/T' - 1), with an atom of mass 1/N at 0. *)
let expected_messages_uncached ~n ~n_estimate ~delay ~t_suppress =
  if n <= 0 then invalid_arg "Feedback_timer.expected_messages: n must be positive";
  if t_suppress <= 0. then
    invalid_arg "Feedback_timer.expected_messages: t_suppress must be positive";
  if delay < 0. then invalid_arg "Feedback_timer.expected_messages: negative delay";
  let nf = float_of_int n and nn = float_of_int n_estimate in
  let t' = t_suppress in
  let cdf y = if y <= 0. then nn ** ((0. /. t') -. 1.) else nn ** ((y /. t') -. 1.) in
  (* F(y) for y<0 is 0; at y=0 it is the atom 1/N. *)
  let f_below y = if y < 0. then 0. else cdf y in
  if delay >= t' then nf
  else begin
    (* E[M]/n = F(Δ) + ∫_Δ^T' (1 - F(t-Δ))^(n-1) f(t) dt with
       f(t) = ln N / T' · N^(t/T' - 1). *)
    let density t = log nn /. t' *. (nn ** ((t /. t') -. 1.)) in
    let integrand t = ((1. -. f_below (t -. delay)) ** (nf -. 1.)) *. density t in
    let steps = 2000 in
    let h = (t' -. delay) /. float_of_int steps in
    let sum = ref 0. in
    for i = 0 to steps do
      let t = delay +. (float_of_int i *. h) in
      let w = if i = 0 || i = steps then 0.5 else 1. in
      sum := !sum +. (w *. integrand t)
    done;
    let integral = !sum *. h in
    nf *. (cdf delay +. integral)
  end

(* The integral is re-evaluated with identical (n, n_estimate, delay,
   t_suppress) arguments every feedback round (and across the rows of
   Fig. 4), so memoize it.  The cache is domain-local: parallel sweep
   workers each get their own table, so no synchronization is needed and
   results stay deterministic per run. *)
let memo_capacity = 512

let memo : ((int * int * float * float, float) Hashtbl.t) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let expected_messages ~n ~n_estimate ~delay ~t_suppress =
  let tbl = Domain.DLS.get memo in
  let key = (n, n_estimate, delay, t_suppress) in
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = expected_messages_uncached ~n ~n_estimate ~delay ~t_suppress in
      (* Argument validation raised before we got here, so only valid
         entries are cached.  Bound the table so pathological callers
         cannot grow it without limit. *)
      if Hashtbl.length tbl >= memo_capacity then Hashtbl.reset tbl;
      Hashtbl.add tbl key v;
      v
