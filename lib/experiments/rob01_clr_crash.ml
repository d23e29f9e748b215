open Tfmcc_core

(* Robustness: silent crash of the current limiting receiver.

   Three receivers behind per-receiver links of increasing loss; the
   lossiest one becomes the CLR.  A third into the run a Fault.crash
   event makes the current CLR vanish without a leave report (crash —
   the hard case: the sender only learns through its CLR timeout).  The
   sender must (a) notice the silence within clr_timeout_rounds feedback
   rounds, (b) fail over to the next limiting receiver, and (c) never
   free-run above what the survivors report. *)

let run ~mode ~seed =
  let t_end = Scenario.scale mode ~quick:60. ~full:150. in
  let crash_at = t_end /. 3. in
  let st =
    Scenario.star ~seed ~link_bps:20e6
      ~link_delays:[| 0.02; 0.04; 0.03 |]
      ~link_losses:[| 0.002; 0.04; 0.01 |]
      ()
  in
  let sess = st.Scenario.s_session in
  let eng = st.Scenario.s_sc.Scenario.engine in
  let fault = Netsim.Fault.create eng in
  Session.start sess ~at:0.;
  (* Crash whoever is CLR at the time, not a hard-coded node: if the
     election went another way the experiment still kills the right
     receiver. *)
  let crashed = ref (-1) in
  Netsim.Fault.crash fault ~at:crash_at (fun () ->
      match Sender.clr (Session.sender sess) with
      | Some id ->
          crashed := id;
          Receiver.leave (Session.receiver sess ~node_id:id) ~explicit_leave:false ()
      | None -> ());
  let samples = ref [] in
  Scenario.sample_every st.Scenario.s_sc ~dt:0.25 ~t_end (fun now ->
      let s = Session.sender sess in
      let clr = match Sender.clr s with Some id -> float_of_int id | None -> -1. in
      samples :=
        (now, [ Sender.rate_bytes_per_s s *. 8. /. 1e6; clr ]) :: !samples);
  Scenario.run_until st.Scenario.s_sc t_end;
  let s = Session.sender sess in
  let failover_note =
    Printf.sprintf
      "crashed CLR node %d at t=%.0fs: clr_timeouts=%d clr_failovers=%d \
       (timeout bound: %.0f feedback rounds)"
      !crashed crash_at (Sender.clr_timeouts s) (Sender.clr_failovers s)
      Config.clr_timeout_rounds
  in
  (* Summaries come from the shared observability plane, not per-object
     accessors: the same counters any other consumer of the sink sees. *)
  let metrics = st.Scenario.s_sc.Scenario.obs.Obs.Sink.metrics in
  let journal = st.Scenario.s_sc.Scenario.obs.Obs.Sink.journal in
  [
    Series.make
      ~title:"rob01: CLR crash (silent leave) and sender failover"
      ~xlabel:"time (s)"
      ~ylabels:[ "X_send (Mbit/s)"; "CLR node id (-1 = none)" ]
      ~notes:
        [
          failover_note;
          Obs.Metrics.describe ~prefix:"netsim_fault_" metrics;
          Printf.sprintf "malformed reports dropped: %d"
            (Obs.Metrics.sum_counters metrics "tfmcc_sender_malformed_drops_total");
          Printf.sprintf "journal: %d CLR changes, %d CLR drops"
            (Obs.Journal.count_events journal (function
              | Obs.Journal.Clr_change _ -> true
              | _ -> false))
            (Obs.Journal.count_events journal (function
              | Obs.Journal.Clr_drop _ -> true
              | _ -> false));
        ]
      (List.rev !samples);
  ]
