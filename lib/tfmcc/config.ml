type bias = Unbiased | Offset | Modified_offset | Modified_n

type t = {
  packet_size : int;
  n_intervals : int;
  rtt_initial : float;
  bias : bias;
  zeta : float;
  use_suppression : bool;
  remodel_on_first_rtt : bool;
  remember_clr : bool;
  defense_enabled : bool;
  b : float;
  max_rate : float;
}

let default =
  {
    packet_size = 1000;
    n_intervals = 8;
    rtt_initial = 0.5;
    bias = Modified_offset;
    zeta = 0.1;
    use_suppression = true;
    remodel_on_first_rtt = false;
    remember_clr = false;
    defense_enabled = false;
    b = 2.;
    max_rate = 1e9;
  }

(* [Float.is_finite] first: NaN is false under every comparison, so a
   bare [x <= 0.] check would let it through. *)
let validate t =
  let positive x = Float.is_finite x && x > 0. in
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if t.packet_size <= 0 then err "packet_size must be positive"
  else if t.n_intervals < 2 then err "n_intervals must be at least 2"
  else if not (positive t.rtt_initial) then err "rtt_initial must be finite and positive"
  else if not (Float.is_finite t.zeta && t.zeta >= 0. && t.zeta <= 1.) then
    err "zeta out of [0,1]"
  else if not (positive t.b) then err "b must be finite and positive"
  else if not (positive t.max_rate) then err "max_rate must be finite and positive"
  else Ok ()

let ewma_clr = 0.05

let ewma_other = 0.5

let ewma_oneway = 0.005

let round_rtt_factor = 6.

let round_min_packets = 3

let fb_delta = 1. /. 3.

let n_estimate = 10_000

let clr_timeout_rounds = 10.

let slowstart_multiplier = 2.

let increase_limit_packets = 1.

let remember_clr_rtts = 4.

let starvation_rounds = 2.

let starvation_decay = 0.5

let defense_equation_slack = 4.

let defense_rtt_floor_fraction = 0.25

let defense_xrecv_slack = 3.

let defense_echo_delay_rounds = 4.

let defense_mad_threshold = 5.

let defense_mad_floor = 0.15

let defense_mad_min_reports = 4

let defense_drop_ratio = 30.

let defense_report_horizon_rounds = 8.

let defense_holddown_rounds = 1.

let defense_holddown_max_rounds = 8.

let defense_clr_hysteresis = 0.05

let defense_max_reports_per_round = 4

let defense_suspicion_threshold = 3.

let defense_suspicion_decay = 0.5

let defense_quarantine_rounds = 20.
