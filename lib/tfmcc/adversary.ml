(* Byzantine receiver strategies (DESIGN.md §10).

   An adversary joins the multicast group like any receiver, snoops the
   data-packet headers, and unicasts forged — but field-valid — reports
   to the sender.  Forged reports deliberately pass
   [Wire.report_fields_valid]: the point of the suite is what happens
   *after* syntactic validation, where only the Defense layer stands
   between a liar and the group's rate.

   The understater and the rtt-liar are "consistent liars": they derive
   the claimed loss-event rate from the TCP equation at their own claimed
   (rate, rtt) via [Tcp_model.Padhye.inverse_loss], so per-report
   equation checking cannot catch them — the understater is caught by the
   cross-receiver outlier screen, the rtt-liar by the physical RTT floor,
   the spammer by the per-round report limit. *)

type strategy =
  | Understater of { factor : float }
  | Overstater of { factor : float }
  | Rtt_liar of { rtt : float; factor : float }
  | Spammer of { factor : float }

type t = {
  env : Env.t;
  cfg : Config.t;
  session : int;
  sender : int;
  strategy : strategy;
  mutable active : bool;
  (* Snooped sender state. *)
  mutable adv_rate : float;  (* advertised X_send from the last header *)
  mutable round : int;
  mutable max_rtt : float;
  mutable last_ts : float;  (* sender timestamp of the newest data packet *)
  mutable last_arrival : float;  (* local clock at its arrival *)
  mutable have_data : bool;
  mutable reported_round : int;  (* last round we reported in *)
  mutable sent : int;
}

let node_id t = t.env.Env.id

let reports_sent t = t.sent

(* A forged report: honest echo fields (so the sender-side RTT sample is
   genuine and the report survives any echo-based check), lying rate
   machinery per strategy. *)
let forge t =
  let now = t.env.Env.clock.Event_heap.cell_time in
  let s = t.cfg.Config.packet_size in
  let b = t.cfg.Config.b in
  let consistent_p ~rtt rate =
    if rate <= 0. then 1. else Tcp_model.Padhye.inverse_loss ~b ~s ~rtt rate
  in
  let rate, have_rtt, rtt, p, x_recv, has_loss =
    match t.strategy with
    | Understater { factor } ->
        (* Tiny calculated rate, plausible RTT, self-consistent p: the
           classic group-capture attack on single-rate multicast. *)
        let rate = factor *. t.adv_rate in
        let rtt = Float.max 1e-3 t.max_rtt in
        (rate, true, rtt, consistent_p ~rtt rate, rate, true)
    | Overstater { factor } ->
        (* No loss ever, absurd receive rate: a congested receiver hiding
           its losses so it is never elected CLR. *)
        let rate = factor *. t.adv_rate in
        let rtt = Float.max 1e-3 t.max_rtt in
        (rate, true, rtt, 0., rate, false)
    | Rtt_liar { rtt; factor } ->
        (* Undercut the current rate a little every round with a forged
           tiny RTT; the geometric decay compounds while the tiny claimed
           RTT also poisons the increase cap once elected. *)
        let rate = factor *. t.adv_rate in
        (rate, true, rtt, consistent_p ~rtt rate, t.adv_rate, true)
    | Spammer { factor } ->
        (* Immediate feedback on every data packet, always slightly below
           the sender's rate: monopolizes the suppression echo so honest
           receivers cancel their timers, and drags the rate down. *)
        let rate = factor *. t.adv_rate in
        let rtt = Float.max 1e-3 t.max_rtt in
        (rate, true, rtt, consistent_p ~rtt rate, t.adv_rate, true)
  in
  Wire.Report
    {
      session = t.session;
      rx_id = node_id t;
      ts = now;
      echo_ts = t.last_ts;
      echo_delay = now -. t.last_arrival;
      rate;
      have_rtt;
      rtt;
      p;
      x_recv;
      round = t.round;
      has_loss;
      leaving = false;
    }

let send_report t =
  t.env.Env.send
    ~dest:(Env.To_node t.sender)
    ~flow:(-1) ~size:Wire.report_size (forge t);
  t.sent <- t.sent + 1

let on_data t ~ts ~rate ~round ~max_rtt =
  t.adv_rate <- rate;
  t.max_rtt <- max_rtt;
  t.last_ts <- ts;
  t.last_arrival <- t.env.Env.clock.Event_heap.cell_time;
  t.have_data <- true;
  let new_round = round <> t.round in
  t.round <- round;
  if t.active then
    match t.strategy with
    | Spammer _ -> send_report t
    | Understater _ | Overstater _ | Rtt_liar _ ->
        (* One forged report per feedback round, fired on the first data
           packet of the round — ahead of every honest receiver's biased
           feedback timer, so the forged rate also wins the suppression
           echo. *)
        if new_round && t.reported_round <> round then begin
          t.reported_round <- round;
          send_report t
        end

let deliver_data t (d : Wire.data) =
  if d.session = t.session then
    on_data t ~ts:d.ts ~rate:d.rate ~round:d.round ~max_rtt:d.max_rtt

let create ~env ~cfg ~session ~sender ~strategy () =
  let t =
    {
      env;
      cfg;
      session;
      sender;
      strategy;
      active = false;
      adv_rate = 0.;
      round = -1;
      max_rtt = cfg.Config.rtt_initial;
      last_ts = 0.;
      last_arrival = 0.;
      have_data = false;
      reported_round = -1;
      sent = 0;
    }
  in
  env.Env.join ();
  t

let start t ~at =
  ignore (t.env.Env.at ~time:at (fun () -> t.active <- true))
