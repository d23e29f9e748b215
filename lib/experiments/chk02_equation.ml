(* Equation-consistency oracle (DESIGN.md §11): in steady state with a
   single lossy receiver, the sender's rate is the CLR's calculated
   rate, which in turn is the Padhye throughput at the receiver's
   measured loss-event rate and RTT.  Re-deriving that throughput from
   the receiver's own state and comparing it against the sender's
   actual rate closes the loop over the entire report/election/rate
   pipeline: a persistent gap means some stage drifted from Eq. (1). *)

type sample = { time : float; rate_kbps : float; model_kbps : float; gap : float }

let measure_at ~seed ?(loss = 0.01) ?(delay = 0.04) ~t_end () =
  let cfg = Tfmcc_core.Config.default in
  let st =
    Scenario.star ~seed ~cfg ~link_bps:8e6 ~link_delays:[| delay |]
      ~link_losses:[| loss |] ()
  in
  Tfmcc_core.Session.start st.Scenario.s_session ~at:0.;
  let warmup = t_end /. 3. in
  let samples = ref [] in
  Scenario.sample_every st.Scenario.s_sc ~dt:1. ~t_end (fun now ->
      if now >= warmup then begin
        let sender = Tfmcc_core.Session.sender st.Scenario.s_session in
        let rx = List.hd (Tfmcc_core.Session.receivers st.Scenario.s_session) in
        let p = Tfmcc_core.Receiver.loss_event_rate rx in
        let rtt = Tfmcc_core.Receiver.rtt rx in
        let rate = Tfmcc_core.Sender.rate_bytes_per_s sender in
        if p > 0. && Tfmcc_core.Receiver.has_rtt_measurement rx then begin
          let model =
            Tcp_model.Padhye.throughput ~b:cfg.Tfmcc_core.Config.b
              ~s:cfg.Tfmcc_core.Config.packet_size ~rtt p
          in
          let gap =
            Check.Oracle.equation_gap ~b:cfg.Tfmcc_core.Config.b
              ~s:cfg.Tfmcc_core.Config.packet_size ~rtt ~p ~rate
          in
          samples :=
            {
              time = now;
              rate_kbps = rate *. 8. /. 1000.;
              model_kbps = model *. 8. /. 1000.;
              gap;
            }
            :: !samples
        end
      end);
  Scenario.run_until st.Scenario.s_sc t_end;
  List.rev !samples

let measure = measure_at ~seed:42

let mean_gap samples =
  match List.filter (fun s -> Float.is_finite s.gap) samples with
  | [] -> infinity
  | l ->
      List.fold_left (fun acc s -> acc +. s.gap) 0. l
      /. float_of_int (List.length l)

let tolerance = 0.15

let run ~mode ~seed =
  let t_end = Scenario.scale mode ~quick:120. ~full:300. in
  let samples = measure_at ~seed ~t_end () in
  let rows =
    List.map (fun s -> (s.time, [ s.rate_kbps; s.model_kbps; s.gap ])) samples
  in
  let mg = mean_gap samples in
  [
    Series.make
      ~title:
        "Chk 2: equation oracle — sender rate vs Padhye model at the \
         receiver's (p, RTT)"
      ~xlabel:"time (s)"
      ~ylabels:[ "sender rate (kbit/s)"; "model rate (kbit/s)"; "relative gap" ]
      ~notes:
        [
          Printf.sprintf
            "mean relative gap after warmup: %.1f%% vs %.0f%% tolerance — %s \
             (the sender tracks the CLR's smoothed, capped report, so a \
             bounded instantaneous gap is expected; a diverging one is \
             drift)"
            (100. *. mg) (100. *. tolerance)
            (if mg <= tolerance then "PASS" else "FAIL");
        ]
      rows;
  ]
