(* Tests for the runtime invariant checker, the differential oracles and
   the digest machinery (lib/check, DESIGN.md §11). *)

module I = Check.Invariant

let ok_counts : I.link_counts =
  {
    offered = 100;
    drop_down = 2;
    drop_ttl = 1;
    drop_queue = 7;
    queued = 3;
    on_wire = 1;
    sent = 86;
    drop_loss = 4;
    in_flight = 2;
    delivered = 80;
  }

let check_ok name = function
  | Ok () -> ()
  | Error d -> Alcotest.fail (Printf.sprintf "%s: unexpected violation: %s" name d)

let check_err name = function
  | Ok () -> Alcotest.fail (Printf.sprintf "%s: violation not detected" name)
  | Error _ -> ()

(* ------------------------------------------------------- pure predicates *)

let test_link_conservation () =
  check_ok "balanced ledger" (I.check_link_conservation ok_counts);
  check_err "offered leak"
    (I.check_link_conservation { ok_counts with offered = 101 });
  check_err "sent-side leak"
    (I.check_link_conservation { ok_counts with delivered = 79 });
  check_ok "all zero"
    (I.check_link_conservation
       {
         offered = 0;
         drop_down = 0;
         drop_ttl = 0;
         drop_queue = 0;
         queued = 0;
         on_wire = 0;
         sent = 0;
         drop_loss = 0;
         in_flight = 0;
         delivered = 0;
       })

let test_loss_event_rate () =
  check_ok "zero" (I.check_loss_event_rate 0.);
  check_ok "one" (I.check_loss_event_rate 1.);
  check_ok "typical" (I.check_loss_event_rate 0.013);
  check_err "negative" (I.check_loss_event_rate (-0.01));
  check_err "above one" (I.check_loss_event_rate 1.01);
  check_err "NaN" (I.check_loss_event_rate Float.nan)

let test_rtt () =
  check_ok "typical" (I.check_rtt 0.06);
  check_err "zero" (I.check_rtt 0.);
  check_err "negative" (I.check_rtt (-0.1));
  check_err "infinite" (I.check_rtt Float.infinity);
  check_err "NaN" (I.check_rtt Float.nan)

let test_x_recv () =
  check_ok "zero" (I.check_x_recv 0.);
  check_ok "typical" (I.check_x_recv 125_000.);
  check_err "negative" (I.check_x_recv (-1.));
  check_err "infinite" (I.check_x_recv Float.infinity);
  check_err "NaN" (I.check_x_recv Float.nan)

let test_rate_bounds () =
  let chk = I.check_rate_bounds ~x_min:15.625 ~x_max:1e6 in
  check_ok "floor" (chk 15.625);
  check_ok "cap" (chk 1e6);
  check_ok "mid" (chk 50_000.);
  check_err "below floor" (chk 15.);
  check_err "above cap" (chk 1.1e6);
  check_err "NaN" (chk Float.nan);
  check_err "infinite" (chk Float.infinity)

let test_rate_ceiling () =
  let chk = I.check_rate_ceiling ~x_min:15.625 in
  check_ok "at the CLR rate"
    (chk ~in_slowstart:false ~starved:false ~clr_rate:(Some 40_000.)
       ~rate:40_000.);
  check_ok "below the CLR rate"
    (chk ~in_slowstart:false ~starved:false ~clr_rate:(Some 40_000.)
       ~rate:30_000.);
  check_err "above the CLR rate"
    (chk ~in_slowstart:false ~starved:false ~clr_rate:(Some 40_000.)
       ~rate:40_001.);
  check_ok "floor dominates a tiny CLR rate"
    (chk ~in_slowstart:false ~starved:false ~clr_rate:(Some 1.) ~rate:15.625);
  check_ok "vacuous in slowstart"
    (chk ~in_slowstart:true ~starved:false ~clr_rate:(Some 40_000.)
       ~rate:90_000.);
  check_ok "vacuous when starved"
    (chk ~in_slowstart:false ~starved:true ~clr_rate:(Some 40_000.)
       ~rate:90_000.);
  check_ok "vacuous without CLR"
    (chk ~in_slowstart:false ~starved:false ~clr_rate:None ~rate:90_000.)

let test_clr_defined () =
  check_ok "CLR present"
    (I.check_clr_defined ~round:10 ~reports:50 ~clr_changes:1 ~starved:false
       ~has_clr:true);
  check_ok "early rounds"
    (I.check_clr_defined ~round:2 ~reports:3 ~clr_changes:0 ~starved:false
       ~has_clr:false);
  check_ok "no reports yet"
    (I.check_clr_defined ~round:10 ~reports:0 ~clr_changes:0 ~starved:false
       ~has_clr:false);
  check_ok "starved senders excused"
    (I.check_clr_defined ~round:10 ~reports:50 ~clr_changes:0 ~starved:true
       ~has_clr:false);
  check_ok "had a CLR once"
    (I.check_clr_defined ~round:10 ~reports:50 ~clr_changes:2 ~starved:false
       ~has_clr:false);
  check_err "reports but never a CLR"
    (I.check_clr_defined ~round:10 ~reports:50 ~clr_changes:0 ~starved:false
       ~has_clr:false)

let test_time_monotonic () =
  check_ok "forward" (I.check_time_monotonic ~last:1.0 ~now:1.5);
  check_ok "equal" (I.check_time_monotonic ~last:1.0 ~now:1.0);
  check_err "backwards" (I.check_time_monotonic ~last:1.0 ~now:0.999)

(* ------------------------------------------------------ checker plumbing *)

(* A live TFMCC session whose checker is told a 100 B/s rate cap, below
   the sender's starting rate, so every sample breaks [rate_bounds]. *)
let capped_session sink =
  let s =
    Experiments.Scenario.star ~seed:3 ~obs:sink ~link_bps:1e6
      ~link_delays:[| 0.02 |] ()
  in
  Tfmcc_core.Session.start s.Experiments.Scenario.s_session ~at:0.;
  (s.Experiments.Scenario.s_sc.Experiments.Scenario.engine, s.Experiments.Scenario.s_session)

let capped = { Tfmcc_core.Config.default with max_rate = 100. }

let violations sink =
  Obs.Metrics.sum_counters sink.Obs.Sink.metrics "check_violations_total"

let test_checker_counts_violations () =
  let sink = Obs.Sink.create () in
  let engine, session = capped_session sink in
  let t = I.create () in
  I.watch_session t engine ~cfg:capped session;
  Netsim.Engine.run ~until:1.0 engine;
  (* Samples at 0.25, 0.5, 0.75 and 1.0, each one over the cap. *)
  Alcotest.(check int) "samples counted" 4
    (Obs.Metrics.counter_value sink.Obs.Sink.metrics "check_samples_total");
  Alcotest.(check int) "violations counted" 4
    (List.assoc
       [ ("invariant", "rate_bounds") ]
       (Obs.Metrics.labelled_values sink.Obs.Sink.metrics "check_violations_total"));
  Alcotest.(check int) "journal notes" (violations sink)
    (List.length
       (List.filter
          (fun (e : Obs.Journal.entry) ->
            e.scope.component = "check" && e.severity = Obs.Journal.Error)
          (Obs.Journal.entries sink.Obs.Sink.journal)))

let test_checker_strict_aborts_with_window () =
  let sink = Obs.Sink.create () in
  let engine, session = capped_session sink in
  Obs.Sink.event sink ~time:0. (Obs.Journal.scope "test")
    (Obs.Journal.Note "context before the violation");
  let t = I.create ~strict:true () in
  I.watch_session t engine ~cfg:capped session;
  match Netsim.Engine.run ~until:1.0 engine with
  | () -> Alcotest.fail "strict checker did not abort"
  | exception I.Violation msg ->
      let contains needle =
        let rec go i =
          i + String.length needle <= String.length msg
          && (String.sub msg i (String.length needle) = needle || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "names the invariant" true (contains "rate_bounds");
      Alcotest.(check bool) "carries the detail" true (contains "above cap 100");
      Alcotest.(check bool) "attaches the journal window" true
        (contains "journal window");
      Alcotest.(check bool) "window holds prior context" true
        (contains "context before the violation")

let test_checker_clean_run_no_violations () =
  (* A healthy dumbbell under the full watch set: engine, bottleneck
     link, TFMCC session.  Nothing may fire. *)
  let t = I.create () in
  let sink = Obs.Sink.create () in
  Experiments.Scenario.with_cell ~checks:t sink (fun () ->
      let d =
        Experiments.Scenario.dumbbell ~bottleneck_bps:1e6 ~delay_s:0.04
          ~n_tfmcc_rx:3 ~n_tcp:1 ()
      in
      Tfmcc_core.Session.start d.Experiments.Scenario.session ~at:0.;
      Experiments.Scenario.run_until d.Experiments.Scenario.sc 30.);
  Alcotest.(check int) "no violations" 0 (violations sink);
  Alcotest.(check bool) "checker sampled" true
    (Obs.Metrics.counter_value sink.Obs.Sink.metrics "check_samples_total" > 0)

let test_link_probe_detects_tampering () =
  (* Force a real violation through the public watch_link path by
     tampering with a link's counters... we can't — they're abstract.
     Instead check that a real run keeps the ledger balanced while a
     synthetic miscount trips the pure predicate (covered above), and
     that watch_link samples cleanly on live traffic. *)
  let t = I.create () in
  let sc = Experiments.Scenario.base () in
  let a = Netsim.Topology.add_node sc.Experiments.Scenario.topo in
  let b = Netsim.Topology.add_node sc.Experiments.Scenario.topo in
  let ab, _ =
    Netsim.Topology.connect sc.Experiments.Scenario.topo ~queue_capacity:5
      ~bandwidth_bps:80_000. ~delay_s:0.01 a b
  in
  I.watch_link t sc.Experiments.Scenario.engine ~name:"ab" ab;
  (* Offer 3x the line rate so queue drops occur. *)
  let src =
    Netsim.Traffic.cbr sc.Experiments.Scenario.topo ~flow:9 ~src:a ~dst:b
      ~rate_bps:240_000. ()
  in
  Netsim.Traffic.start src ~at:0.;
  Experiments.Scenario.run_until sc 6.;
  Alcotest.(check int) "ledger balanced under overload" 0
    (violations (Netsim.Engine.obs sc.Experiments.Scenario.engine));
  Alcotest.(check bool) "queue actually dropped" true
    (Netsim.Link.drops_queue ab > 0)

(* ---------------------------------------------------------------- digest *)

let of_string s =
  let d = Check.Digest.create () in
  Check.Digest.add_string d s;
  Check.Digest.to_hex d

let test_digest_known_vectors () =
  (* Published FNV-1a 64-bit vectors. *)
  Alcotest.(check string) "empty" "cbf29ce484222325" (of_string "");
  Alcotest.(check string) "'a'" "af63dc4c8601ec8c" (of_string "a");
  Alcotest.(check string) "'foobar'" "85944171f73967e8"
    (of_string "foobar")

let test_digest_streaming_equals_oneshot () =
  let d = Check.Digest.create () in
  Check.Digest.add_string d "foo";
  Check.Digest.add_char d 'b';
  Check.Digest.add_string d "ar";
  Alcotest.(check string) "chunking irrelevant"
    (of_string "foobar") (Check.Digest.to_hex d)

(* ---------------------------------------------------------------- oracle *)

let test_oracle_arithmetic () =
  Alcotest.(check (float 1e-12)) "exact" 0.
    (Check.Oracle.relative_error ~expected:100. ~actual:100.);
  Alcotest.(check (float 1e-12)) "ten percent" 0.1
    (Check.Oracle.relative_error ~expected:100. ~actual:110.);
  Alcotest.(check (float 1e-12)) "both zero" 0.
    (Check.Oracle.relative_error ~expected:0. ~actual:0.)

let test_equation_gap () =
  let b = 1. and s = 1000 and rtt = 0.05 and p = 0.01 in
  let model = Tcp_model.Padhye.throughput ~b ~s ~rtt p in
  Alcotest.(check (float 1e-9)) "zero at the model rate" 0.
    (Check.Oracle.equation_gap ~b ~s ~rtt ~p ~rate:model);
  Alcotest.(check (float 1e-9)) "relative gap" 0.5
    (Check.Oracle.equation_gap ~b ~s ~rtt ~p ~rate:(1.5 *. model));
  Alcotest.(check bool) "degenerate p" true
    (Check.Oracle.equation_gap ~b ~s ~rtt ~p:0. ~rate:1e5 = infinity);
  Alcotest.(check bool) "degenerate rtt" true
    (Check.Oracle.equation_gap ~b ~s ~rtt:0. ~p ~rate:1e5 = infinity)

(* -------------------------------------------- differential oracles (sim) *)

let test_differential_tfmcc_vs_tfrc () =
  let c =
    Experiments.Chk01_differential.compare_pair ~bottleneck_bps:1e6
      ~delay_s:0.03 ~t_end:60. ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "TFMCC %.0f ~ TFRC %.0f kbit/s (gap %.1f%%)"
       c.Experiments.Chk01_differential.tfmcc_kbps
       c.Experiments.Chk01_differential.tfrc_kbps
       (100. *. c.Experiments.Chk01_differential.rel_err))
    true
    (c.Experiments.Chk01_differential.rel_err
    <= Experiments.Chk01_differential.tolerance)

let test_equation_oracle_converges () =
  let samples = Experiments.Chk02_equation.measure ~t_end:60. () in
  let mg = Experiments.Chk02_equation.mean_gap samples in
  Alcotest.(check bool)
    (Printf.sprintf "mean equation gap %.3f within %.2f" mg
       Experiments.Chk02_equation.tolerance)
    true
    (mg <= Experiments.Chk02_equation.tolerance)

let prop_differential_oracle_random_topologies =
  QCheck.Test.make ~name:"differential oracle over random dumbbells" ~count:3
    QCheck.(pair (int_range 5 30) (int_range 10 60))
    (fun (bw_hundred_kbit, delay_ms) ->
      let c =
        Experiments.Chk01_differential.compare_pair
          ~bottleneck_bps:(1e5 *. float_of_int bw_hundred_kbit)
          ~delay_s:(float_of_int delay_ms /. 1000.)
          ~t_end:45. ()
      in
      (* Looser than the curated cells: short runs on arbitrary
         geometry; the oracle still has to stay in the same regime. *)
      Float.is_finite c.Experiments.Chk01_differential.rel_err
      && c.Experiments.Chk01_differential.rel_err <= 0.5)

let prop_equation_oracle_random_loss =
  QCheck.Test.make ~name:"equation oracle over random loss patterns" ~count:3
    QCheck.(pair (int_range 5 40) (int_range 10 80))
    (fun (loss_permille, delay_ms) ->
      let samples =
        Experiments.Chk02_equation.measure
          ~loss:(float_of_int loss_permille /. 1000.)
          ~delay:(float_of_int delay_ms /. 1000.)
          ~t_end:60. ()
      in
      let mg = Experiments.Chk02_equation.mean_gap samples in
      Float.is_finite mg && mg <= 0.5)

let () =
  Alcotest.run "check"
    [
      ( "predicates",
        [
          Alcotest.test_case "link conservation" `Quick test_link_conservation;
          Alcotest.test_case "loss event rate" `Quick test_loss_event_rate;
          Alcotest.test_case "rtt" `Quick test_rtt;
          Alcotest.test_case "x_recv" `Quick test_x_recv;
          Alcotest.test_case "rate bounds" `Quick test_rate_bounds;
          Alcotest.test_case "rate ceiling" `Quick test_rate_ceiling;
          Alcotest.test_case "clr defined" `Quick test_clr_defined;
          Alcotest.test_case "time monotonic" `Quick test_time_monotonic;
        ] );
      ( "checker",
        [
          Alcotest.test_case "counts violations" `Quick test_checker_counts_violations;
          Alcotest.test_case "strict aborts with journal window" `Quick
            test_checker_strict_aborts_with_window;
          Alcotest.test_case "clean dumbbell run" `Quick
            test_checker_clean_run_no_violations;
          Alcotest.test_case "link probe under overload" `Quick
            test_link_probe_detects_tampering;
        ] );
      ( "digest",
        [
          Alcotest.test_case "FNV-1a vectors" `Quick test_digest_known_vectors;
          Alcotest.test_case "streaming = one-shot" `Quick
            test_digest_streaming_equals_oneshot;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "arithmetic" `Quick test_oracle_arithmetic;
          Alcotest.test_case "equation gap" `Quick test_equation_gap;
          Alcotest.test_case "TFMCC(1rx) ~ TFRC" `Slow test_differential_tfmcc_vs_tfrc;
          Alcotest.test_case "equation oracle converges" `Slow
            test_equation_oracle_converges;
        ] );
      ( "oracle properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_differential_oracle_random_topologies;
            prop_equation_oracle_random_loss;
          ] );
    ]
