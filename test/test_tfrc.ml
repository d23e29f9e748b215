(* Tests for the TFRC substrate: WALI loss history, rate meter, and the
   unicast TFRC agents. *)

let check_float = Alcotest.(check (float 1e-9))

(* The histories and meters under test run on this clock cell, and the
   histories aggregate with the RTT in [rtt_now]; the helpers below set
   both before each call, as a receiver's clock and estimator would. *)
let clock = { Event_heap.cell_time = 0. }

let rtt_now = ref 0.1

(* --------------------------------------------------------- Loss_history *)

let new_history ?n_intervals ?first_interval () =
  Tfrc.Loss_history.create ~clock ~rtt:(fun () -> !rtt_now) ?n_intervals
    ?first_interval ()

let on_packet h ~seq ~now ~rtt =
  clock.cell_time <- now;
  rtt_now := rtt;
  Tfrc.Loss_history.on_packet h ~seq

let feed history ~rtt seqs =
  List.iteri (fun i seq -> on_packet history ~seq ~now:(0.01 *. float_of_int i) ~rtt) seqs

let range a b = List.init (b - a) (fun i -> a + i)

let test_no_loss () =
  let h = new_history () in
  feed h ~rtt:0.1 (range 0 100);
  check_float "p = 0 without loss" 0. (Tfrc.Loss_history.loss_event_rate h);
  Alcotest.(check bool) "no loss flag" false (Tfrc.Loss_history.has_loss h);
  Alcotest.(check int) "100 packets" 100 (Tfrc.Loss_history.packets_seen h)

let test_single_gap_is_loss () =
  let h = new_history () in
  feed h ~rtt:0.001 (range 0 10 @ range 11 20);
  Alcotest.(check bool) "loss detected" true (Tfrc.Loss_history.has_loss h);
  Alcotest.(check int) "one event" 1 (Tfrc.Loss_history.loss_events h)

let test_aggregation_within_rtt () =
  (* Three gaps arriving within one RTT = one loss event. *)
  let h = new_history () in
  let rtt = 10.0 (* larger than the whole feed *) in
  feed h ~rtt ([ 0; 1; 3; 5; 7 ] @ range 8 20);
  Alcotest.(check int) "aggregated into one event" 1 (Tfrc.Loss_history.loss_events h)

let test_separate_events_beyond_rtt () =
  let h = new_history () in
  let rtt = 0.001 (* smaller than inter-packet time *) in
  feed h ~rtt ([ 0; 1; 3 ] @ range 4 10 @ [ 11 ] @ range 12 20);
  Alcotest.(check int) "two events" 2 (Tfrc.Loss_history.loss_events h)

let test_interval_lengths () =
  let h = new_history ~first_interval:(fun () -> Some 50.) () in
  (* loss at 10 (synthetic first interval 50), loss at 25: closed interval
     of 15 packets. *)
  feed h ~rtt:0.001 (range 0 10 @ range 11 25 @ range 26 40);
  match Tfrc.Loss_history.closed_intervals h with
  | [ newest; synthetic ] ->
      check_float "newest interval = 15" 15. newest;
      check_float "synthetic = 50" 50. synthetic
  | l -> Alcotest.failf "expected 2 intervals, got %d" (List.length l)

let test_open_interval_reduces_p () =
  let h = new_history ~first_interval:(fun () -> Some 10.) () in
  feed h ~rtt:0.001 (range 0 10 @ range 11 20);
  let p_before = Tfrc.Loss_history.loss_event_rate h in
  (* A long loss-free run grows the open interval and must lower p. *)
  List.iteri
    (fun i seq ->
      on_packet h ~seq ~now:(1. +. (0.01 *. float_of_int i)) ~rtt:0.001)
    (range 20 200);
  let p_after = Tfrc.Loss_history.loss_event_rate h in
  Alcotest.(check bool)
    (Printf.sprintf "p decreased (%.4f -> %.4f)" p_before p_after)
    true (p_after < p_before)

let test_history_depth_bounded () =
  let h = new_history ~n_intervals:8 () in
  (* 20 well-separated loss events *)
  let seqs = List.concat_map (fun k -> range (20 * k) ((20 * k) + 19)) (range 0 20) in
  feed h ~rtt:0.0001 seqs;
  Alcotest.(check bool) "at most 8 intervals kept" true
    (List.length (Tfrc.Loss_history.closed_intervals h) <= 8)

let test_weights_shape () =
  let h = new_history ~n_intervals:8 () in
  let w = Tfrc.Loss_history.weights h in
  Alcotest.(check int) "8 weights" 8 (Array.length w);
  check_float "w0 = 1" 1. w.(0);
  check_float "w3 = 1" 1. w.(3);
  check_float "w4 = 0.8" 0.8 w.(4);
  check_float "w7 = 0.2" 0.2 w.(7);
  (* non-increasing *)
  for i = 1 to 7 do
    if w.(i) > w.(i - 1) then Alcotest.fail "weights must be non-increasing"
  done

let test_synthetic_fallback () =
  (* Without a first_interval callback the packet count seeds the
     history. *)
  let h = new_history () in
  feed h ~rtt:0.001 (range 0 30 @ range 31 40);
  match Tfrc.Loss_history.closed_intervals h with
  | [ synthetic ] -> check_float "synthetic = packets seen" 30. synthetic
  | l -> Alcotest.failf "expected 1 interval, got %d" (List.length l)

let test_rescale_synthetic () =
  let h = new_history ~first_interval:(fun () -> Some 100.) () in
  feed h ~rtt:0.001 (range 0 10 @ range 11 20);
  Tfrc.Loss_history.rescale_synthetic h ~factor:0.25;
  (match Tfrc.Loss_history.closed_intervals h with
  | [ synthetic ] -> check_float "rescaled" 25. synthetic
  | l -> Alcotest.failf "expected 1 interval, got %d" (List.length l));
  (* Second rescale is a no-op (already consumed). *)
  Tfrc.Loss_history.rescale_synthetic h ~factor:0.25;
  match Tfrc.Loss_history.closed_intervals h with
  | [ synthetic ] -> check_float "no double rescale" 25. synthetic
  | _ -> Alcotest.fail "unexpected"

let test_rescale_after_aging_is_noop () =
  let h = new_history ~n_intervals:2 ~first_interval:(fun () -> Some 100.) () in
  (* Push enough later events that the synthetic interval falls off. *)
  let seqs = List.concat_map (fun k -> range (20 * k) ((20 * k) + 19)) (range 0 5) in
  feed h ~rtt:0.0001 seqs;
  let before = Tfrc.Loss_history.closed_intervals h in
  Tfrc.Loss_history.rescale_synthetic h ~factor:100.;
  Alcotest.(check (list (float 1e-9))) "unchanged" before
    (Tfrc.Loss_history.closed_intervals h)

let test_late_join_sync () =
  (* A receiver joining mid-stream must not see the prefix as loss. *)
  let h = new_history () in
  feed h ~rtt:0.1 (range 5000 5100);
  check_float "no loss after late join" 0. (Tfrc.Loss_history.loss_event_rate h);
  Alcotest.(check bool) "no loss event" false (Tfrc.Loss_history.has_loss h)

let test_duplicates_ignored () =
  let h = new_history () in
  feed h ~rtt:0.1 [ 0; 1; 2; 2; 1; 3 ];
  Alcotest.(check int) "duplicates not counted" 4 (Tfrc.Loss_history.packets_seen h);
  check_float "no loss" 0. (Tfrc.Loss_history.loss_event_rate h)

let test_p_matches_uniform_intervals () =
  (* Regular loss every k packets: p should converge to ~1/k. *)
  let k = 25 in
  let h = new_history () in
  let seqs =
    List.concat_map (fun ev -> range ((k * ev) + 1) (k * (ev + 1))) (range 0 20)
  in
  feed h ~rtt:0.0001 seqs;
  Alcotest.(check (float 0.01))
    "p ~ 1/25" (1. /. float_of_int k)
    (Tfrc.Loss_history.loss_event_rate h)

let test_remodel_merges_events () =
  (* Five gaps 0.1 s apart, aggregated with a tiny RTT: five events.
     Remodelling with a 1 s RTT must merge them into one. *)
  let h = new_history () in
  let seq = ref 0 in
  let deliver ~now k =
    for _ = 1 to k do
      on_packet h ~seq:!seq ~now ~rtt:0.001;
      incr seq
    done
  in
  deliver ~now:0. 10;
  for g = 1 to 5 do
    incr seq (* drop one *);
    deliver ~now:(0.1 *. float_of_int g) 5
  done;
  Alcotest.(check int) "five events under tiny RTT" 5 (Tfrc.Loss_history.loss_events h);
  let p_before = Tfrc.Loss_history.loss_event_rate h in
  Tfrc.Loss_history.remodel h ~rtt:1.0;
  let p_after = Tfrc.Loss_history.loss_event_rate h in
  Alcotest.(check bool)
    (Printf.sprintf "merging reduces p (%.4f -> %.4f)" p_before p_after)
    true (p_after < p_before);
  Alcotest.(check int) "one rebuilt interval set" 1
    (List.length (Tfrc.Loss_history.closed_intervals h) |> fun n ->
     if n >= 1 then 1 else n)

let test_remodel_splits_events () =
  (* Two gaps 0.2 s apart aggregated with a huge RTT: one event.
     Remodelling with a 50 ms RTT must split them into two. *)
  let h = new_history ~first_interval:(fun () -> Some 30.) () in
  let seq = ref 0 in
  let deliver ~now k =
    for _ = 1 to k do
      on_packet h ~seq:!seq ~now ~rtt:10.;
      incr seq
    done
  in
  deliver ~now:0. 10;
  incr seq;
  deliver ~now:0.1 10;
  incr seq;
  deliver ~now:0.3 10;
  Alcotest.(check int) "one event under huge RTT" 1 (Tfrc.Loss_history.loss_events h);
  Tfrc.Loss_history.remodel h ~rtt:0.05;
  Alcotest.(check bool) "split into more events" true
    (List.length (Tfrc.Loss_history.closed_intervals h) >= 1
    && Tfrc.Loss_history.loss_events h >= 2)

let test_remodel_noop_without_gaps () =
  let h = new_history () in
  feed h ~rtt:0.1 (range 0 50);
  Tfrc.Loss_history.remodel h ~rtt:0.05;
  check_float "still no loss" 0. (Tfrc.Loss_history.loss_event_rate h)

let test_remodel_preserves_uncovered_history () =
  (* Regression: the splice between the rebuilt intervals and the old
     history used to be approximated by list length, which dropped any
     old interval (here the App. B synthetic one) not actually covered
     by the retained gap log.  Build 3 gaps at seqs 10/20/30 where the
     first two aggregate under the initial 0.1 s RTT, then remodel with
     a 0.01 s RTT so they split: the rebuilt [10; 10] must splice in
     front of the synthetic 5-interval, not erase it. *)
  let h = new_history ~first_interval:(fun () -> Some 5.) () in
  let seq = ref 0 in
  let deliver ~now k =
    for _ = 1 to k do
      on_packet h ~seq:!seq ~now ~rtt:0.1;
      incr seq
    done
  in
  deliver ~now:0.9 10;
  incr seq (* lose 10 *);
  deliver ~now:1.0 9 (* 11..19; gap (10, 1.0) -> event 1, synthetic 5 *);
  incr seq (* lose 20 *);
  deliver ~now:1.05 9 (* 21..29; gap (20, 1.05) within RTT: same event *);
  incr seq (* lose 30 *);
  deliver ~now:2.0 2 (* 31..32; gap (30, 2.0) -> event 2, interval 20 *);
  Alcotest.(check (list (float 1e-9)))
    "before remodel: [closed 20; synthetic 5]" [ 20.; 5. ]
    (Tfrc.Loss_history.closed_intervals h);
  let p_before = Tfrc.Loss_history.loss_event_rate h in
  check_float "p before remodel (mean interval 12.5)" (1. /. 12.5) p_before;
  Tfrc.Loss_history.remodel h ~rtt:0.01;
  Alcotest.(check (list (float 1e-9)))
    "after remodel: rebuilt [10; 10] spliced before the synthetic 5"
    [ 10.; 10.; 5. ]
    (Tfrc.Loss_history.closed_intervals h);
  let p_after = Tfrc.Loss_history.loss_event_rate h in
  check_float "p after remodel (mean interval 25/3)" (3. /. 25.) p_after;
  (* The synthetic interval's position must survive the splice: App. B's
     first-RTT rescale still has to find it. *)
  Tfrc.Loss_history.rescale_synthetic h ~factor:2.;
  Alcotest.(check (list (float 1e-9)))
    "rescale_synthetic still reaches the synthetic interval"
    [ 10.; 10.; 10. ]
    (Tfrc.Loss_history.closed_intervals h)

(* ----------------------------------------------------------- Rate_meter *)

let new_meter ?window () = Tfrc.Rate_meter.create ~clock ?window ()

let record m ~now ~bytes =
  clock.cell_time <- now;
  Tfrc.Rate_meter.record m ~bytes

let rate m ~now =
  clock.cell_time <- now;
  Tfrc.Rate_meter.rate_bytes_per_s m

let test_meter_basic_rate () =
  let m = new_meter ~window:1.0 () in
  for i = 0 to 99 do
    record m ~now:(0.01 *. float_of_int i) ~bytes:100
  done;
  (* 100 bytes every 10 ms = 10 kB/s *)
  Alcotest.(check (float 500.)) "rate ~ 10kB/s" 10_000.
    (rate m ~now:1.0)

let test_meter_window_expiry () =
  let m = new_meter ~window:1.0 () in
  record m ~now:0. ~bytes:10_000;
  let r_late = rate m ~now:10. in
  check_float "old samples expire" 0. r_late

let test_meter_burst_floor () =
  (* Two back-to-back packets must not read as a huge rate. *)
  let m = new_meter ~window:1.0 () in
  record m ~now:0. ~bytes:1000;
  record m ~now:0.001 ~bytes:1000;
  let r = rate m ~now:0.001 in
  Alcotest.(check bool)
    (Printf.sprintf "rate bounded by span floor (got %.0f)" r)
    true (r <= 4000.)

let test_meter_total () =
  let m = new_meter ~window:10. () in
  record m ~now:0. ~bytes:5;
  record m ~now:1. ~bytes:7;
  (* Both arrivals in the window, averaged over the 5 s span floor. *)
  check_float "total over the span" (12. /. 5.) (rate m ~now:1.)

let test_meter_set_window () =
  let m = new_meter ~window:10. () in
  record m ~now:0. ~bytes:1000;
  record m ~now:5. ~bytes:1000;
  (Tfrc.Rate_meter.window m).seconds <- 1.;
  (* With a 1s window only the recent sample counts. *)
  Alcotest.(check (float 1.)) "window shrink drops old mass" 1000.
    (rate m ~now:5.5)

(* A NaN window, time or RTT compares false everywhere, so a guard
   written as [x <= 0.] lets it through and the protocol state freezes:
   a meter reporting a NaN rate for good, or every later loss folded
   into one event.  Each must fail loudly instead. *)
let raises_invalid what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Invalid_argument _ -> ()

let test_meter_rejects_nan_window () =
  raises_invalid "create ~window:nan" (fun () -> new_meter ~window:nan ());
  raises_invalid "create ~window:infinity" (fun () -> new_meter ~window:infinity ());
  let m = new_meter () in
  record m ~now:0. ~bytes:1000;
  (Tfrc.Rate_meter.window m).seconds <- nan;
  raises_invalid "record under a NaN window" (fun () -> record m ~now:0.5 ~bytes:1000);
  raises_invalid "rate under a NaN window" (fun () -> rate m ~now:0.5)

let test_meter_rejects_nan_time () =
  let m = new_meter () in
  record m ~now:0. ~bytes:1000;
  raises_invalid "record at a NaN time" (fun () -> record m ~now:nan ~bytes:1000);
  raises_invalid "record at an infinite time" (fun () -> record m ~now:infinity ~bytes:1000);
  (* Only the first arrival counts, over the 0.5 s span floor. *)
  check_float "nothing recorded" 2000. (rate m ~now:0.5)

let test_history_rejects_nan_rtt () =
  (* Four gaps 10 s apart are four loss events under any finite RTT
     below 10 s; a NaN RTT used to fold them into one. *)
  let h = new_history () in
  raises_invalid "gaps under a NaN rtt" (fun () ->
      List.iteri
        (fun g seqs ->
          List.iter (fun seq -> on_packet h ~seq ~now:(10. *. float_of_int g) ~rtt:nan) seqs)
        [ range 0 5; range 6 10; range 11 15; range 16 20 ]);
  raises_invalid "remodel ~rtt:nan" (fun () -> Tfrc.Loss_history.remodel h ~rtt:nan)

(* ------------------------------------------------------------ TFRC e2e *)

let tfrc_pair ~bottleneck_bps ~loss =
  let e = Netsim.Engine.create ~seed:11 ~obs:(Obs.Sink.create ()) () in
  let topo = Netsim.Topology.create e in
  let a = Netsim.Topology.add_node topo in
  let b = Netsim.Topology.add_node topo in
  let loss_ab =
    if loss > 0. then
      Some (Netsim.Loss_model.bernoulli ~rng:(Netsim.Engine.split_rng e) ~p:loss)
    else None
  in
  ignore
    (Netsim.Topology.connect topo ?loss_ab ~bandwidth_bps:bottleneck_bps
       ~delay_s:0.02 a b);
  let snd = Tfrc.Tfrc_sender.create topo ~conn:1 ~flow:1 ~src:a ~dst:b () in
  let rcv = Tfrc.Tfrc_receiver.create topo ~conn:1 ~node:b ~sender:a in
  (e, snd, rcv)

let test_tfrc_slowstart_and_transfer () =
  let e, snd, _rcv = tfrc_pair ~bottleneck_bps:1e6 ~loss:0. in
  Tfrc.Tfrc_sender.start snd ~at:0.;
  Netsim.Engine.run ~until:30. e;
  let count name =
    Obs.Metrics.sum_counters (Netsim.Engine.obs e).Obs.Sink.metrics name
  in
  Alcotest.(check bool) "packets flowed" true
    (count "tfrc_receiver_packets_received_total" > 500);
  Alcotest.(check bool) "feedback flowed" true (count "tfrc_receiver_feedback_total" > 10);
  match Tfrc.Tfrc_sender.rtt snd with
  | Some rtt -> Alcotest.(check bool) "plausible RTT" true (rtt > 0.03 && rtt < 0.8)
  | None -> Alcotest.fail "sender never measured RTT"

let test_tfrc_tracks_equation_rate () =
  let loss = 0.02 in
  let e, snd, rcv = tfrc_pair ~bottleneck_bps:50e6 ~loss in
  Tfrc.Tfrc_sender.start snd ~at:0.;
  Netsim.Engine.run ~until:120. e;
  let measured_p = Tfrc.Tfrc_receiver.loss_event_rate rcv in
  Alcotest.(check bool)
    (Printf.sprintf "measured p ~ configured (%.4f)" measured_p)
    true
    (measured_p > 0.01 && measured_p < 0.04);
  let rate = Tfrc.Tfrc_sender.rate_bytes_per_s snd in
  let expect = Tcp_model.Padhye.throughput ~s:1000 ~rtt:0.045 loss in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.0f within 3x of equation %.0f" rate expect)
    true
    (rate > expect /. 3. && rate < expect *. 3.)

let test_tfrc_halts_without_feedback () =
  (* 100% loss on the return path: the no-feedback timer must keep
     halving the rate down to the floor. *)
  let e = Netsim.Engine.create ~seed:13 () in
  let topo = Netsim.Topology.create e in
  let a = Netsim.Topology.add_node topo in
  let b = Netsim.Topology.add_node topo in
  ignore
    (Netsim.Topology.connect topo
       ~loss_ba:(Netsim.Loss_model.bernoulli ~rng:(Netsim.Engine.split_rng e) ~p:1.0)
       ~bandwidth_bps:1e6 ~delay_s:0.02 a b);
  let snd = Tfrc.Tfrc_sender.create topo ~conn:1 ~flow:1 ~src:a ~dst:b () in
  let _rcv = Tfrc.Tfrc_receiver.create topo ~conn:1 ~node:b ~sender:a in
  Tfrc.Tfrc_sender.start snd ~at:0.;
  Netsim.Engine.run ~until:120. e;
  Alcotest.(check bool) "rate collapsed to floor" true
    (Tfrc.Tfrc_sender.rate_bytes_per_s snd <= 1000. /. 64. *. 4.)

(* ----------------------------------------------------------- Properties *)

let prop_loss_rate_bounded =
  QCheck.Test.make ~name:"loss event rate always in [0,1]" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 200) (int_range 0 300))
    (fun seqs ->
      let h = new_history () in
      List.iteri
        (fun i seq ->
          on_packet h ~seq ~now:(0.01 *. float_of_int i) ~rtt:0.05)
        seqs;
      let p = Tfrc.Loss_history.loss_event_rate h in
      p >= 0. && p <= 1.)

let prop_loss_events_monotone =
  QCheck.Test.make ~name:"loss events never decrease" ~count:100
    QCheck.(list_of_size Gen.(int_range 2 100) (int_range 0 500))
    (fun seqs ->
      let h = new_history () in
      let ok = ref true in
      let prev = ref 0 in
      List.iteri
        (fun i seq ->
          on_packet h ~seq ~now:(0.01 *. float_of_int i) ~rtt:0.01;
          let ev = Tfrc.Loss_history.loss_events h in
          if ev < !prev then ok := false;
          prev := ev)
        seqs;
      !ok)

let prop_meter_rate_nonneg =
  QCheck.Test.make ~name:"meter rate is non-negative" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 50) (pair (float_bound_inclusive 10.) (int_range 1 10_000)))
    (fun samples ->
      let m = new_meter ~window:2. () in
      let sorted = List.sort (fun (a, _) (b, _) -> compare a b) samples in
      List.iter (fun (now, bytes) -> record m ~now ~bytes) sorted;
      rate m ~now:11. >= 0.)

let prop_mean_interval_inverse_of_p =
  QCheck.Test.make ~name:"mean interval * p ~ 1 once loss exists" ~count:100
    QCheck.(list_of_size Gen.(int_range 10 150) (int_range 0 400))
    (fun seqs ->
      let h = new_history () in
      List.iteri
        (fun i seq ->
          on_packet h ~seq ~now:(0.01 *. float_of_int i) ~rtt:0.01)
        seqs;
      let p = Tfrc.Loss_history.loss_event_rate h in
      let m = Tfrc.Loss_history.mean_interval h in
      if not (Tfrc.Loss_history.has_loss h) then p = 0. && m = infinity
      else abs_float ((p *. m) -. 1.) < 1e-9 || (m < 1. && p = 1.))

let prop_seen_plus_lost_bounded =
  QCheck.Test.make ~name:"packets seen + lost consistent with seq span" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 100) (int_range 0 300))
    (fun seqs ->
      let h = new_history () in
      List.iteri
        (fun i seq ->
          on_packet h ~seq ~now:(0.01 *. float_of_int i) ~rtt:0.01)
        seqs;
      (* Duplicates and packets older than the first are not counted. *)
      Tfrc.Loss_history.packets_seen h >= 1
      && Tfrc.Loss_history.packets_seen h
         <= List.length (List.sort_uniq compare seqs))

let () =
  Alcotest.run "tfrc"
    [
      ( "loss_history",
        [
          Alcotest.test_case "no loss" `Quick test_no_loss;
          Alcotest.test_case "single gap" `Quick test_single_gap_is_loss;
          Alcotest.test_case "aggregation within RTT" `Quick test_aggregation_within_rtt;
          Alcotest.test_case "separate events" `Quick test_separate_events_beyond_rtt;
          Alcotest.test_case "interval lengths" `Quick test_interval_lengths;
          Alcotest.test_case "open interval reduces p" `Quick test_open_interval_reduces_p;
          Alcotest.test_case "history depth bounded" `Quick test_history_depth_bounded;
          Alcotest.test_case "WALI weights" `Quick test_weights_shape;
          Alcotest.test_case "synthetic fallback" `Quick test_synthetic_fallback;
          Alcotest.test_case "rescale synthetic" `Quick test_rescale_synthetic;
          Alcotest.test_case "rescale after aging" `Quick test_rescale_after_aging_is_noop;
          Alcotest.test_case "late join sync" `Quick test_late_join_sync;
          Alcotest.test_case "duplicates ignored" `Quick test_duplicates_ignored;
          Alcotest.test_case "p ~ 1/interval" `Quick test_p_matches_uniform_intervals;
          Alcotest.test_case "remodel merges events" `Quick test_remodel_merges_events;
          Alcotest.test_case "remodel splits events" `Quick test_remodel_splits_events;
          Alcotest.test_case "remodel no-op without gaps" `Quick test_remodel_noop_without_gaps;
          Alcotest.test_case "rejects a non-finite rtt" `Quick test_history_rejects_nan_rtt;
          Alcotest.test_case "remodel preserves uncovered history" `Quick
            test_remodel_preserves_uncovered_history;
        ] );
      ( "rate_meter",
        [
          Alcotest.test_case "basic rate" `Quick test_meter_basic_rate;
          Alcotest.test_case "window expiry" `Quick test_meter_window_expiry;
          Alcotest.test_case "burst floor" `Quick test_meter_burst_floor;
          Alcotest.test_case "total" `Quick test_meter_total;
          Alcotest.test_case "set window" `Quick test_meter_set_window;
          Alcotest.test_case "rejects a non-finite window" `Quick
            test_meter_rejects_nan_window;
          Alcotest.test_case "rejects a non-finite time" `Quick
            test_meter_rejects_nan_time;
        ] );
      ( "agents",
        [
          Alcotest.test_case "slowstart + transfer" `Quick test_tfrc_slowstart_and_transfer;
          Alcotest.test_case "tracks equation rate" `Slow test_tfrc_tracks_equation_rate;
          Alcotest.test_case "halts without feedback" `Quick test_tfrc_halts_without_feedback;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_loss_rate_bounded; prop_loss_events_monotone;
            prop_meter_rate_nonneg; prop_mean_interval_inverse_of_p;
            prop_seen_plus_lost_bounded;
          ] );
    ]
