open Netsim_env

(* Robustness: corrupted, duplicated and reordered packets on every
   receiver link, both directions.

   Five percent of data packets and five percent of reports get one
   field mangled (Wire.corrupt_packet: NaN rates, negative RTTs, p > 1,
   bogus rounds, wrong session ids ...), some packets are duplicated and
   some reports reordered.  The required behaviour is containment: every
   malformed packet is rejected at validation before touching protocol
   state (the drop counters account for all of them), the sender's rate
   stays finite and positive throughout, and throughput stays in the
   band the surviving valid feedback supports. *)

let run ~mode ~seed =
  let t_end = Scenario.scale mode ~quick:60. ~full:150. in
  let st =
    Scenario.star ~seed ~link_bps:20e6
      ~link_delays:[| 0.02; 0.03; 0.04 |]
      ~link_losses:[| 0.005; 0.01; 0.02 |]
      ()
  in
  let sess = st.Scenario.s_session in
  let eng = st.Scenario.s_sc.Scenario.engine in
  let fault = Netsim.Fault.create eng in
  Session.start sess ~at:0.;
  Array.iter
    (fun (fwd, rev) ->
      Netsim.Fault.corrupt fault fwd ~rate:0.05 ~mangle:Netsim_env.corrupt_packet;
      Netsim.Fault.corrupt fault rev ~rate:0.05 ~mangle:Netsim_env.corrupt_packet;
      Netsim.Fault.duplicate fault fwd ~rate:0.01;
      Netsim.Fault.reorder fault rev ~rate:0.02 ~extra_delay:0.05)
    st.Scenario.s_rx_links;
  let samples = ref [] in
  let rate_ok = ref true in
  Scenario.sample_every st.Scenario.s_sc ~dt:0.25 ~t_end (fun now ->
      let s = Session.sender sess in
      let rate = Sender.rate_bytes_per_s s in
      if not (Float.is_finite rate && rate > 0.) then rate_ok := false;
      samples := (now, [ rate *. 8. /. 1e6 ]) :: !samples);
  Scenario.run_until st.Scenario.s_sc t_end;
  let metrics = st.Scenario.s_sc.Scenario.obs.Obs.Sink.metrics in
  let journal = st.Scenario.s_sc.Scenario.obs.Obs.Sink.journal in
  [
    Series.make
      ~title:"rob03: corrupted / duplicated / reordered packets"
      ~xlabel:"time (s)"
      ~ylabels:[ "X_send (Mbit/s)" ]
      ~notes:
        [
          Obs.Metrics.describe ~prefix:"netsim_fault_" metrics;
          Printf.sprintf
            "rejected at validation: %d reports (sender), %d data packets \
             (receivers)"
            (Obs.Metrics.sum_counters metrics "tfmcc_sender_malformed_drops_total")
            (Obs.Metrics.sum_counters metrics
               "tfmcc_receiver_malformed_drops_total");
          Printf.sprintf "journal: %d malformed-drop entries retained"
            (Obs.Journal.count_events journal (function
              | Obs.Journal.Malformed_drop _ -> true
              | _ -> false));
          (if !rate_ok then "sender rate stayed finite and positive throughout"
           else "FAIL: sender rate went non-finite or non-positive");
        ]
      (List.rev !samples);
  ]
