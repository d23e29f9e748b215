open Tfmcc_core

(* Shared harness of the Byzantine robustness suite (rob04–rob07).

   One attack matrix cell = a fig09-style dumbbell (8 Mbit/s bottleneck,
   32 honest receivers, no TCP cross traffic so the honest-goodput signal
   is clean) with at most one adversarial receiver attached behind the
   right router.  The adversary starts after slowstart has settled; the
   honest goodput is measured from shortly after the attack starts to the
   end of the run, so a successful attack shows up directly as lost
   goodput.  Every cell runs on a private observability sink so defense
   counters never leak between cells. *)

type attack = Understater | Overstater | Rtt_liar | Spammer

let attacks = [ Understater; Overstater; Rtt_liar; Spammer ]

let attack_name = function
  | Understater -> "understater"
  | Overstater -> "overstater"
  | Rtt_liar -> "rtt-liar"
  | Spammer -> "spammer"

(* Calibrated attack strengths: the understater claims 2% of the
   advertised rate (equation-consistent, so only the outlier screen can
   catch it); the rtt-liar shaves 20% per round with a 1 ms claimed RTT;
   the spammer undercuts by 30% on every data packet. *)
let strategy = function
  | Understater -> Adversary.Understater { factor = 0.02 }
  | Overstater -> Adversary.Overstater { factor = 50. }
  | Rtt_liar -> Adversary.Rtt_liar { rtt = 0.001; factor = 0.8 }
  | Spammer -> Adversary.Spammer { factor = 0.7 }

type cell = {
  c_attack : string;  (* "none" for the no-attacker baseline *)
  c_defense : bool;
  c_goodput_kbps : float;  (* mean per-receiver goodput over the window *)
  c_forged_reports : int;
  c_rejects : int;  (* defense rejections of any kind *)
  c_outlier_rejects : int;
  c_quarantines : int;
  c_damped : int;
  c_clr_changes : int;
  c_failovers : int;
  c_starvations : int;
  c_samples : (float * float) list;  (* (t, X_send in Mbit/s) *)
}

let n_receivers = 32

let bottleneck_bps = 8e6

let attack_start = 6.

let measure_start = 10.

let horizon mode = Scenario.scale mode ~quick:30. ~full:90.

let run_cell ~mode ~seed ?attack ~defense () =
  let t_end = horizon mode in
  let cfg = { Config.default with Config.defense_enabled = defense } in
  let obs = Obs.Sink.create () in
  let d =
    Scenario.dumbbell ~seed ~obs ~cfg ~bottleneck_bps ~delay_s:0.02
      ~n_tfmcc_rx:n_receivers ~n_tcp:0 ()
  in
  let sc = d.Scenario.sc in
  let adversary =
    match attack with
    | None -> None
    | Some a ->
        let node = Netsim.Topology.add_node sc.Scenario.topo in
        ignore
          (Netsim.Topology.connect sc.Scenario.topo
             ~bandwidth_bps:(10. *. bottleneck_bps) ~delay_s:0.001
             d.Scenario.right_router node);
        let b = Netsim_env.backend sc.Scenario.topo ~session:Scenario.tfmcc_flow in
        let adv =
          Adversary.create ~env:(b.env node) ~cfg ~session:Scenario.tfmcc_flow
            ~sender:(Netsim.Node.id d.Scenario.sender_node) ~strategy:(strategy a) ()
        in
        b.on_data node (fun ~size:_ data -> Adversary.deliver_data adv data);
        Adversary.start adv ~at:attack_start;
        Some adv
  in
  Session.start d.Scenario.session ~at:0.;
  let rxs = Session.receivers d.Scenario.session in
  let counts_at_start = ref [] in
  ignore
    (Netsim.Engine.at sc.Scenario.engine ~time:measure_start (fun () ->
         counts_at_start := List.map Receiver.packets_received rxs));
  let samples = ref [] in
  Scenario.sample_every sc ~dt:0.25 ~t_end (fun now ->
      let x = Sender.rate_bytes_per_s (Session.sender d.Scenario.session) in
      samples := (now, x *. 8. /. 1e6) :: !samples);
  Scenario.run_until sc t_end;
  let window = t_end -. measure_start in
  let goodput_kbps =
    if !counts_at_start = [] then 0.
    else
      let per_rx =
        List.map2
          (fun rx c0 ->
            float_of_int (Receiver.packets_received rx - c0)
            *. float_of_int cfg.Config.packet_size *. 8. /. window /. 1000.)
          rxs !counts_at_start
      in
      List.fold_left ( +. ) 0. per_rx /. float_of_int (List.length per_rx)
  in
  let metrics = obs.Obs.Sink.metrics in
  let cnt = Obs.Metrics.sum_counters metrics in
  (* Cells run on private sinks so counters never leak between matrix
     cells — but the CLI's [--json] / [--metrics-out] export reads the
     installed sink.  Mirror the per-cell protocol verdicts there,
     labeled by cell, so chaos runs export their defense counters too. *)
  (match Scenario.ambient_obs () with
  | Some amb when amb != obs ->
      let labels =
        [
          ( "attack",
            match attack with Some a -> attack_name a | None -> "none" );
          ("defense", if defense then "on" else "off");
        ]
      in
      List.iter
        (fun name ->
          Obs.Metrics.Counter.add
            (Obs.Metrics.counter amb.Obs.Sink.metrics ~labels name)
            (cnt name))
        [
          "tfmcc_defense_implausible_total";
          "tfmcc_defense_outliers_total";
          "tfmcc_defense_spam_drops_total";
          "tfmcc_defense_quarantined_drops_total";
          "tfmcc_defense_quarantines_total";
          "tfmcc_defense_clr_damped_total";
          "tfmcc_sender_clr_changes_total";
          "tfmcc_sender_clr_failovers_total";
          "tfmcc_sender_clr_timeouts_total";
          "tfmcc_sender_starvations_total";
        ]
  | _ -> ());
  {
    c_attack = (match attack with Some a -> attack_name a | None -> "none");
    c_defense = defense;
    c_goodput_kbps = goodput_kbps;
    c_forged_reports =
      (match adversary with Some a -> Adversary.reports_sent a | None -> 0);
    c_rejects =
      cnt "tfmcc_defense_implausible_total"
      + cnt "tfmcc_defense_outliers_total"
      + cnt "tfmcc_defense_spam_drops_total"
      + cnt "tfmcc_defense_quarantined_drops_total";
    c_outlier_rejects = cnt "tfmcc_defense_outliers_total";
    c_quarantines = cnt "tfmcc_defense_quarantines_total";
    c_damped = cnt "tfmcc_defense_clr_damped_total";
    c_clr_changes = cnt "tfmcc_sender_clr_changes_total";
    c_failovers = cnt "tfmcc_sender_clr_failovers_total";
    c_starvations = cnt "tfmcc_sender_starvations_total";
    c_samples = List.rev !samples;
  }

(* Goodput lost to the attack, percent, against the matching
   (same-defense-setting) no-attacker baseline. *)
let degradation ~baseline cell =
  if baseline.c_goodput_kbps <= 0. then 0.
  else
    100.
    *. (baseline.c_goodput_kbps -. cell.c_goodput_kbps)
    /. baseline.c_goodput_kbps

(* ------------------------------------------------------------ scorecard *)

type row = {
  r_attack : string;
  r_off : cell;
  r_on : cell;
  r_off_deg : float;  (* percent degradation, defenses off *)
  r_on_deg : float;  (* percent degradation, defenses on *)
}

type scorecard = { base_off : cell; base_on : cell; rows : row list }

let scorecard ~mode ~seed =
  let base_off = run_cell ~mode ~seed ~defense:false () in
  let base_on = run_cell ~mode ~seed ~defense:true () in
  let rows =
    List.map
      (fun a ->
        let off = run_cell ~mode ~seed ~attack:a ~defense:false () in
        let on = run_cell ~mode ~seed ~attack:a ~defense:true () in
        {
          r_attack = attack_name a;
          r_off = off;
          r_on = on;
          r_off_deg = degradation ~baseline:base_off off;
          r_on_deg = degradation ~baseline:base_on on;
        })
      attacks
  in
  { base_off; base_on; rows }

let scorecard_lines s =
  let header =
    Printf.sprintf "%-12s %10s %10s %9s %9s %8s %6s %7s" "attack"
      "off (kbps)" "on (kbps)" "off deg%" "on deg%" "rejects" "quar" "damped"
  in
  let baseline =
    Printf.sprintf
      "baseline (no attacker): %.0f kbps defenses off, %.0f kbps on \
       (32 honest receivers, %.0f Mbit/s bottleneck)"
      s.base_off.c_goodput_kbps s.base_on.c_goodput_kbps
      (bottleneck_bps /. 1e6)
  in
  baseline :: header
  :: List.map
       (fun r ->
         Printf.sprintf "%-12s %10.0f %10.0f %9.1f %9.1f %8d %6d %7d"
           r.r_attack r.r_off.c_goodput_kbps r.r_on.c_goodput_kbps
           r.r_off_deg r.r_on_deg r.r_on.c_rejects r.r_on.c_quarantines
           r.r_on.c_damped)
       s.rows

(* Shared shape of rob04–rob06: one attack, defenses off vs on, sender
   rate over time plus a goodput/defense summary. *)
let attack_series ~id ~attack ~mode ~seed =
  let base = run_cell ~mode ~seed ~defense:false () in
  let off = run_cell ~mode ~seed ~attack ~defense:false () in
  let on = run_cell ~mode ~seed ~attack ~defense:true () in
  let rows =
    List.map2
      (fun (t, x_off) (_, x_on) -> (t, [ x_off; x_on ]))
      off.c_samples on.c_samples
  in
  let name = attack_name attack in
  [
    Series.make
      ~title:
        (Printf.sprintf "%s: single %s among %d honest receivers" id name
           n_receivers)
      ~xlabel:"time (s)"
      ~ylabels:
        [ "X_send, defenses off (Mbit/s)"; "X_send, defenses on (Mbit/s)" ]
      ~notes:
        [
          Printf.sprintf
            "attack starts at t=%.0fs; goodput window [%.0fs, %.0fs]"
            attack_start measure_start (horizon mode);
          Printf.sprintf
            "honest goodput: baseline %.0f kbps | %s w/o defenses %.0f kbps \
             (%.1f%% degradation) | with defenses %.0f kbps (%.1f%%)"
            base.c_goodput_kbps name off.c_goodput_kbps
            (degradation ~baseline:base off)
            on.c_goodput_kbps
            (degradation ~baseline:base on);
          Printf.sprintf
            "forged reports: %d sent, defenses rejected %d (%d outlier, %d \
             quarantines, %d damped switches)"
            on.c_forged_reports on.c_rejects on.c_outlier_rejects
            on.c_quarantines on.c_damped;
          Printf.sprintf
            "CLR churn: %d changes / %d failovers w/o defenses vs %d / %d \
             with"
            off.c_clr_changes off.c_failovers on.c_clr_changes on.c_failovers;
        ]
      rows;
  ]
