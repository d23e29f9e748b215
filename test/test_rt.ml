(* Real-time runtime tests: timer semantics on the loop, loop clock
   hardening and exception behaviour, the time-translation-invariance
   property (shifting the epoch by +1e9 s must not change rate
   decisions), firing-order golden digests, and loopback/UDP transport
   smokes. *)

open Rt

let cfg = Tfmcc_core.Config.default

(* ------------------------------------------------------------------ *)
(* Timers on the loop                                                  *)
(* ------------------------------------------------------------------ *)

(* Timers and frame deliveries fire in nondecreasing deadline order;
   ties break by insertion sequence, across both kinds. *)
let test_wheel_order () =
  let loop = Loop.create () in
  let fired = ref [] in
  let add tag time =
    ignore (Loop.at loop ~time (fun () -> fired := tag :: !fired) : Tfmcc_core.Env.timer)
  in
  let frame tag time =
    Loop.frame_at loop ~time (fun _ _ -> fired := tag :: !fired) Bytes.empty 0
  in
  add "c" 0.030;
  add "a" 0.010;
  add "tie1" 0.020;
  frame "tie2" 0.020;
  add "tie3" 0.020;
  frame "b" 0.015;
  Alcotest.(check int) "pending" 6 (Loop.timers_pending loop);
  Loop.run ~until:1.0 loop;
  Alcotest.(check (list string))
    "deadline order, ties by insertion"
    [ "a"; "b"; "tie1"; "tie2"; "tie3"; "c" ]
    (List.rev !fired);
  Alcotest.(check int) "timers_fired counts frames" 6 (Loop.timers_fired loop);
  Alcotest.(check int) "none left" 0 (Loop.timers_pending loop)

let test_wheel_cancel () =
  let loop = Loop.create () in
  let hits = ref 0 in
  let t1 = Loop.after loop ~delay:0.01 (fun () -> incr hits) in
  let t2 = Loop.after loop ~delay:0.02 (fun () -> incr hits) in
  Alcotest.(check int) "both pending" 2 (Loop.timers_pending loop);
  t1.Tfmcc_core.Env.cancel ();
  Alcotest.(check int) "pending drops on cancel" 1 (Loop.timers_pending loop);
  t1.Tfmcc_core.Env.cancel () (* idempotent *);
  Alcotest.(check int) "second cancel is a no-op" 1 (Loop.timers_pending loop);
  Loop.run loop;
  Alcotest.(check int) "only t2 fired" 1 !hits;
  t2.Tfmcc_core.Env.cancel () (* after fire: no-op *);
  Alcotest.(check int) "fired total" 1 (Loop.timers_fired loop)

(* Deadlines seconds to minutes out sit in the same heap as near ones:
   successive runs walk them in order. *)
let test_wheel_overflow_migration () =
  let loop = Loop.create () in
  let fired = ref [] in
  let add tag time =
    ignore (Loop.at loop ~time (fun () -> fired := tag :: !fired) : Tfmcc_core.Env.timer)
  in
  add "far" 10.0;
  add "farther" 100.0;
  add "near" 0.5;
  Loop.run ~until:1.0 loop;
  Alcotest.(check (list string)) "only near by 1 s" [ "near" ] !fired;
  Loop.run ~until:50.0 loop;
  Loop.run ~until:200.0 loop;
  Alcotest.(check (list string)) "all fired in order" [ "near"; "far"; "farther" ]
    (List.rev !fired);
  Alcotest.(check int) "empty" 0 (Loop.timers_pending loop)

(* A cancelled far entry never fires, and the run goes on past it. *)
let test_wheel_cancel_overflow () =
  let loop = Loop.create () in
  let t = Loop.at loop ~time:10.0 (fun () -> Alcotest.fail "cancelled timer fired") in
  ignore (Loop.at loop ~time:20.0 ignore : Tfmcc_core.Env.timer);
  t.Tfmcc_core.Env.cancel ();
  Alcotest.(check int) "tombstone not pending" 1 (Loop.timers_pending loop);
  Loop.run ~until:30.0 loop;
  Alcotest.(check int) "one fired" 1 (Loop.timers_fired loop)

(* Callbacks scheduling already-due timers: the chain fires within the
   same run, at the same instant. *)
let test_wheel_zero_delay_chain () =
  let loop = Loop.create () in
  let depth = ref 0 in
  let rec chain n () =
    depth := n;
    Alcotest.(check (float 0.)) "clock stays" 0.01 (Loop.now loop);
    if n < 5 then Loop.after_unit loop ~delay:0. (chain (n + 1))
  in
  Loop.after_unit loop ~delay:0.01 (chain 1);
  Loop.run ~until:0.01 loop;
  Alcotest.(check int) "whole chain fired in one run" 5 (Loop.timers_fired loop);
  Alcotest.(check int) "chain depth" 5 !depth

(* A deadline already in the past fires on the next run, and the clock
   does not move back to it. *)
let test_wheel_past_deadline () =
  let loop = Loop.create () in
  Loop.run ~until:100.0 loop;
  let seen = ref nan in
  ignore (Loop.at loop ~time:1.0 (fun () -> seen := Loop.now loop) : Tfmcc_core.Env.timer);
  Loop.run ~until:100.0 loop;
  Alcotest.(check (float 0.)) "past deadline fired at the current time" 100.0 !seen;
  Alcotest.(check (float 0.)) "clock did not move back" 100.0 (Loop.now loop)

let test_wheel_nan_deadline_rejected () =
  let loop = Loop.create () in
  match Loop.frame_at loop ~time:Float.nan (fun _ _ -> ()) Bytes.empty 0 with
  | () -> Alcotest.fail "NaN frame deadline accepted"
  | exception Invalid_argument _ -> ()

(* Reference-model property.  Random programs of schedule, cancel and
   run steps drive a turbo loop and a sorted list of pending
   (deadline, id) pairs; both must fire the same timers in the same
   order.  Callbacks act too: they schedule at or after the run's
   [until] (zero-delay chains included), queue frame deliveries and
   cancel other timers, fired, pending or not yet scheduled.  Frame
   deliveries ([Loop.frame_at]) interleave with closure timers; they
   have no handle, so a cancel aimed at one is a no-op, and some raise.
   With no exn handler a raising entry is consumed and ends its run,
   and every other due entry stays pending for the next one.  Deadlines
   sit on a 0.25 s grid so ties are common, and a scheduled offset may
   be negative (already due). *)
type heap_action = Quiet | Spawn of float * int | Cancel_id of int | Emit of float

type heap_op =
  | Sched of float * heap_action
  | Frame of float * bool (* offset, raises *)
  | Cancel of int
  | Advance of float

let show_heap_op = function
  | Sched (off, Quiet) -> Printf.sprintf "sched %+g" off
  | Sched (off, Spawn (d, k)) -> Printf.sprintf "sched %+g spawn(%g,%d)" off d k
  | Sched (off, Cancel_id j) -> Printf.sprintf "sched %+g cancel(%d)" off j
  | Sched (off, Emit d) -> Printf.sprintf "sched %+g emit(%g)" off d
  | Frame (off, raises) -> Printf.sprintf "frame %+g%s" off (if raises then " raises" else "")
  | Cancel j -> Printf.sprintf "cancel %d" j
  | Advance d -> Printf.sprintf "advance %g" d

let gen_heap_ops =
  let open QCheck.Gen in
  let quarter n = float_of_int n /. 4. in
  let action =
    frequency
      [
        (3, return Quiet);
        (1, map2 (fun d k -> Spawn (quarter d, k)) (int_bound 2) (int_bound 3));
        (1, map (fun j -> Cancel_id j) (int_bound 40));
        (1, map (fun d -> Emit (quarter d)) (int_bound 2));
      ]
  in
  let op =
    frequency
      [
        (4, map2 (fun o a -> Sched (quarter (o - 2), a)) (int_bound 14) action);
        (2, map2 (fun o r -> Frame (quarter (o - 2), r = 0)) (int_bound 14) (int_bound 5));
        (1, map (fun j -> Cancel j) (int_bound 40));
        (2, map (fun d -> Advance (quarter d)) (int_bound 3));
      ]
  in
  list_size (int_range 1 80) op

let child = function Spawn (d, k) when k > 0 -> Spawn (d, k - 1) | _ -> Quiet

exception Boom

(* Both interpreters number timers and frames in schedule order, so an
   id is also the heap's insertion seq.  The trace records each fired
   id, -2 where a raise ended a run and -1 after each run, and the
   pending count after each run is kept beside it.  The final drain
   runs until nothing is due. *)
let run_loop ops =
  let loop = Loop.create () in
  let handles = Hashtbl.create 64 in
  let fired = ref [] and pend = ref [] and next_id = ref 0 and now = ref 0. in
  (* One deliver fn for every frame, as one endpoint's: the size
     carries the id and the frame's one byte whether to raise. *)
  let deliver frame id =
    fired := id :: !fired;
    if Bytes.get frame 0 = 'x' then raise Boom
  in
  let frame time raises =
    let id = !next_id in
    incr next_id;
    Loop.frame_at loop ~time deliver (Bytes.make 1 (if raises then 'x' else '.')) id
  in
  let rec sched time action =
    let id = !next_id in
    incr next_id;
    Hashtbl.replace handles id
      (Loop.at loop ~time (fun () ->
           fired := id :: !fired;
           act action))
  and act = function
    | Quiet -> ()
    | Spawn (d, _) as a -> sched (!now +. d) (child a)
    | Cancel_id j -> cancel j
    | Emit d -> frame (!now +. d) false
  and cancel j =
    Option.iter (fun tm -> tm.Tfmcc_core.Env.cancel ()) (Hashtbl.find_opt handles j)
  in
  let run () =
    match Loop.run ~until:!now loop with
    | () -> true
    | exception Boom ->
        fired := -2 :: !fired;
        false
  in
  List.iter
    (function
      | Sched (off, a) -> sched (!now +. off) a
      | Frame (off, raises) -> frame (!now +. off) raises
      | Cancel j -> cancel j
      | Advance d ->
          now := !now +. d;
          ignore (run () : bool);
          fired := -1 :: !fired;
          pend := Loop.timers_pending loop :: !pend)
    ops;
  let mid_pending = Loop.timers_pending loop in
  now := !now +. 1000.;
  while not (run ()) do
    ()
  done;
  (List.rev !fired, List.rev !pend, mid_pending, Loop.timers_fired loop)

type model_entry = Timer of heap_action | Frame_entry of bool

let run_model ops =
  let pending = ref [] (* sorted by (at, id) *) in
  let fired = ref [] and pend = ref [] and next_id = ref 0 and now = ref 0. in
  let total = ref 0 in
  let add at entry =
    let id = !next_id in
    incr next_id;
    pending := List.merge compare !pending [ (at, id, entry) ]
  in
  let rec act = function
    | Quiet -> ()
    | Spawn (d, _) as a -> add (!now +. d) (Timer (child a))
    | Cancel_id j -> cancel j
    | Emit d -> add (!now +. d) (Frame_entry false)
  and cancel j =
    pending :=
      List.filter
        (function _, id, Timer _ -> id <> j | _, _, Frame_entry _ -> true)
        !pending
  in
  let rec advance () =
    match !pending with
    | (at, id, entry) :: rest when at <= !now -> (
        pending := rest;
        fired := id :: !fired;
        incr total;
        match entry with
        | Timer action ->
            act action;
            advance ()
        | Frame_entry true -> fired := -2 :: !fired
        | Frame_entry false -> advance ())
    | _ -> ()
  in
  List.iter
    (function
      | Sched (off, a) -> add (!now +. off) (Timer a)
      | Frame (off, raises) -> add (!now +. off) (Frame_entry raises)
      | Cancel j -> cancel j
      | Advance d ->
          now := !now +. d;
          advance ();
          fired := -1 :: !fired;
          pend := List.length !pending :: !pend)
    ops;
  let mid_pending = List.length !pending in
  now := !now +. 1000.;
  while List.exists (fun (at, _, _) -> at <= !now) !pending do
    advance ()
  done;
  (List.rev !fired, List.rev !pend, mid_pending, !total)

let prop_loop_matches_model =
  QCheck.Test.make ~name:"fires in exact (deadline, seq) order vs a sorted-list model"
    ~count:500
    (QCheck.make gen_heap_ops ~print:(fun ops -> String.concat "; " (List.map show_heap_op ops)))
    (fun ops -> run_loop ops = run_model ops)

(* A zero-delay timer that keeps rescheduling itself is a runaway chain:
   [run] fails instead of hanging, and the exn handler does not swallow
   the failure. *)
let test_loop_runaway_cap () =
  List.iter
    (fun handler ->
      let loop = Loop.create () in
      if handler then Loop.set_exn_handler loop (fun _ _ -> ());
      let rec again () = Loop.after_unit loop ~delay:0. again in
      Loop.after_unit loop ~delay:0. again;
      match Loop.run loop with
      | () -> Alcotest.fail "runaway chain returned"
      | exception Failure _ ->
          Alcotest.(check int) "not handed to the handler" 0 (Loop.exceptions_caught loop))
    [ false; true ]

(* No deadline is ever past a NaN [until], so a run with one would
   never stop on a periodic timer: rejected up front, nothing fired. *)
let test_loop_nan_until () =
  let loop = Loop.create () in
  let fired = ref 0 in
  ignore (Loop.after loop ~delay:1. (fun () -> incr fired));
  (match Loop.run ~until:Float.nan loop with
  | () -> Alcotest.fail "run ~until:nan returned"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "nothing fired" 0 !fired;
  Alcotest.(check int) "timer still pending" 1 (Loop.timers_pending loop)

(* The harness bounds every run: a run length that is not finite and
   positive, or a non-finite epoch, is a config error.  The finite
   cases come first: at a NaN or infinite length a run that accepted it
   would never return. *)
let test_harness_rejects_bad_run_length () =
  List.iter
    (fun (label, c) ->
      match Harness.run c with
      | _ -> Alcotest.failf "%s accepted" label
      | exception Invalid_argument _ -> ())
    [
      ("duration -1", { Harness.default with Harness.duration = -1. });
      ("duration 0", { Harness.default with Harness.duration = 0. });
      ("epoch nan", { Harness.default with Harness.epoch = Float.nan });
      ("epoch inf", { Harness.default with Harness.epoch = Float.infinity });
      ("duration nan", { Harness.default with Harness.duration = Float.nan });
      ("duration inf", { Harness.default with Harness.duration = Float.infinity });
    ]

(* ------------------------------------------------------------------ *)
(* Turbo loop                                                          *)
(* ------------------------------------------------------------------ *)

let test_loop_turbo_until () =
  let loop = Loop.create () in
  let times = ref [] in
  ignore (Loop.after loop ~delay:0.5 (fun () -> times := Loop.now loop :: !times));
  ignore (Loop.at loop ~time:1.25 (fun () -> times := Loop.now loop :: !times));
  ignore (Loop.at loop ~time:99.0 (fun () -> Alcotest.fail "beyond until"));
  Loop.run ~until:2.0 loop;
  Alcotest.(check (list (float 1e-9))) "virtual clock jumped to deadlines"
    [ 0.5; 1.25 ] (List.rev !times);
  Alcotest.(check (float 1e-9)) "clock lands exactly on until" 2.0 (Loop.now loop);
  Alcotest.(check int) "one still pending" 1 (Loop.timers_pending loop)

(* Non-finite / negative delays are clamped to zero and counted instead
   of corrupting the timer heap. *)
let test_loop_bad_delay () =
  let loop = Loop.create () in
  let hits = ref 0 in
  ignore (Loop.after loop ~delay:Float.nan (fun () -> incr hits));
  ignore (Loop.after loop ~delay:(-3.) (fun () -> incr hits));
  ignore (Loop.after loop ~delay:Float.infinity (fun () -> incr hits));
  Loop.run loop;
  Alcotest.(check int) "all clamped to immediate" 3 !hits;
  Alcotest.(check int) "anomalies counted" 3 (Loop.clock_anomalies loop)

(* Without an exn handler a raising timer escapes [run], but only that
   timer is consumed: its same-deadline siblings stay pending and fire,
   in order, on the next [run]. *)
let test_loop_raise_keeps_siblings () =
  let loop = Loop.create () in
  let fired = ref [] in
  let add tag fn = ignore (Loop.at loop ~time:0.1 (fun () -> fired := tag :: !fired; fn ())) in
  add "a" ignore;
  add "boom" (fun () -> failwith "boom");
  add "b" ignore;
  add "c" ignore;
  Alcotest.check_raises "escapes run" (Failure "boom") (fun () -> Loop.run loop);
  Alcotest.(check (list string)) "stopped at the raise" [ "a"; "boom" ] (List.rev !fired);
  Alcotest.(check int) "siblings still pending" 2 (Loop.timers_pending loop);
  Loop.run loop;
  Alcotest.(check (list string)) "siblings fired on the next run"
    [ "a"; "boom"; "b"; "c" ] (List.rev !fired);
  Alcotest.(check int) "drained" 0 (Loop.timers_pending loop)

(* A raising frame delivery meets the same backstop as a timer: with a
   handler it is caught and counted and its siblings land in the same
   run; without one it escapes [run], and only it is consumed. *)
let test_loop_frame_backstop () =
  let got = ref [] in
  let deliver frame size =
    got := size :: !got;
    if Bytes.get frame 0 = 'x' then failwith "boom"
  in
  let queue loop =
    List.iter
      (fun (size, c) -> Loop.frame_at loop ~time:0.1 deliver (Bytes.make 1 c) size)
      [ (1, '.'); (2, 'x'); (3, '.') ]
  in
  let loop = Loop.create () in
  let seen = ref [] in
  Loop.set_exn_handler loop (fun e _ -> seen := e :: !seen);
  queue loop;
  Loop.run loop;
  Alcotest.(check (list int)) "all delivered" [ 1; 2; 3 ] (List.rev !got);
  Alcotest.(check int) "caught once" 1 (Loop.exceptions_caught loop);
  Alcotest.(check bool) "handler saw it" true (!seen = [ Failure "boom" ]);
  Alcotest.(check int) "frames count as timers" 3 (Loop.timers_fired loop);
  let loop = Loop.create () in
  got := [];
  queue loop;
  Alcotest.check_raises "escapes run" (Failure "boom") (fun () -> Loop.run loop);
  Alcotest.(check (list int)) "stopped at the raise" [ 1; 2 ] (List.rev !got);
  Alcotest.(check int) "sibling still pending" 1 (Loop.timers_pending loop);
  Loop.run loop;
  Alcotest.(check (list int)) "sibling delivered on the next run" [ 1; 2; 3 ]
    (List.rev !got)

(* ------------------------------------------------------------------ *)
(* Clock hardening (ISSUE 7 satellite: non-monotonic now, late timers)  *)
(* ------------------------------------------------------------------ *)

let test_monotonic_clock_clamps () =
  let samples = ref [ 1.0; 2.0; 1.5; 3.0 ] in
  let raw () =
    match !samples with
    | [] -> Alcotest.fail "raw clock exhausted"
    | x :: rest ->
        samples := rest;
        x
  in
  let backsteps = ref [] in
  let clock =
    Tfmcc_core.Env.monotonic_clock ~on_anomaly:(fun d -> backsteps := d :: !backsteps) raw
  in
  let out = List.init 4 (fun _ -> clock ()) in
  Alcotest.(check (list (float 1e-9))) "backward sample clamped to high-water"
    [ 1.0; 2.0; 2.0; 3.0 ] out;
  Alcotest.(check (list (float 1e-9))) "one anomaly, magnitude of the step" [ 0.5 ]
    !backsteps

let test_draw_clamped () =
  let anomalies = ref 0 in
  let on_anomaly () = incr anomalies in
  let draw t_max =
    Tfmcc_core.Feedback_timer.draw_clamped (Stats.Rng.create 5)
      ~on_anomaly ~bias:cfg.Tfmcc_core.Config.bias ~t_max ~delta:0.5
      ~n_estimate:10_000 ~ratio:0.8
  in
  List.iter
    (fun bad ->
      let t = draw bad in
      Alcotest.(check bool)
        (Printf.sprintf "finite non-negative for t_max=%h" bad)
        true
        (Float.is_finite t && t >= 0.))
    [ Float.nan; 0.; -1.; Float.neg_infinity ];
  Alcotest.(check int) "each bad t_max counted" 4 !anomalies;
  (* On valid input it is draw itself, RNG consumption included. *)
  let a = draw 2.0 in
  let b =
    Tfmcc_core.Feedback_timer.draw (Stats.Rng.create 5)
      ~bias:cfg.Tfmcc_core.Config.bias ~t_max:2.0 ~delta:0.5
      ~n_estimate:10_000 ~ratio:0.8
  in
  Alcotest.(check (float 0.)) "identical to draw on valid input" b a;
  Alcotest.(check int) "no anomaly on valid input" 4 !anomalies

let test_round_duration_clamped () =
  let anomalies = ref 0 in
  let on_anomaly () = incr anomalies in
  List.iter
    (fun (max_rtt, rate) ->
      let t =
        Tfmcc_core.Feedback_timer.round_duration_clamped ~on_anomaly ~cfg ~max_rtt ~rate
      in
      Alcotest.(check bool) "finite positive" true (Float.is_finite t && t > 0.))
    [ (Float.nan, 1000.); (0., 1000.); (0.1, Float.nan); (0.1, 0.); (-1., -1.) ];
  Alcotest.(check bool) "anomalies counted" true (!anomalies >= 5);
  let clean = ref 0 in
  let t =
    Tfmcc_core.Feedback_timer.round_duration_clamped
      ~on_anomaly:(fun () -> incr clean)
      ~cfg ~max_rtt:0.1 ~rate:10_000.
  in
  Alcotest.(check (float 0.)) "matches round_duration on valid input"
    (Tfmcc_core.Feedback_timer.round_duration ~cfg ~max_rtt:0.1 ~rate:10_000.)
    t;
  Alcotest.(check int) "no anomaly on valid input" 0 !clean

(* The estimator under test runs on this clock cell (the receiver's
   [Env.clock]); the helpers set it to the sample's time first, as the
   runtime would. *)
let rtt_clock = { Event_heap.cell_time = 0. }

let new_estimator () = Tfmcc_core.Rtt_estimator.create ~cfg ~clock:rtt_clock ~clock_offset:0. ()

let on_echo r ~now ~rx_ts ~echo_delay ~pkt_ts ~is_clr =
  rtt_clock.cell_time <- now;
  Tfmcc_core.Rtt_estimator.on_echo r ~rx_ts ~echo_delay ~pkt_ts ~is_clr

let on_data r ~now ~pkt_ts =
  rtt_clock.cell_time <- now;
  Tfmcc_core.Rtt_estimator.on_data r ~pkt_ts

let test_rtt_estimator_nonmonotonic_now () =
  let e = new_estimator () in
  on_echo e ~now:10.0 ~rx_ts:9.9 ~echo_delay:0.02
    ~pkt_ts:9.95 ~is_clr:true;
  Alcotest.(check int) "no anomaly yet" 0 (Tfmcc_core.Rtt_estimator.clock_anomalies e);
  (* The local clock steps backwards: the sample is clamped to the
     high-water mark, counted, and the estimate stays finite. *)
  on_data e ~now:5.0 ~pkt_ts:9.96;
  Alcotest.(check bool) "backstep counted" true
    (Tfmcc_core.Rtt_estimator.clock_anomalies e >= 1);
  let est = Tfmcc_core.Rtt_estimator.estimate e in
  Alcotest.(check bool) "estimate still sane" true (Float.is_finite est && est > 0.)

let test_rtt_estimator_bad_echo () =
  let e = new_estimator () in
  (* Raw sample local_now - rx_ts - echo_delay is negative: clamped to
     the 1 ms floor, not discarded (the loop is proven closed). *)
  on_echo e ~now:1.0 ~rx_ts:2.0 ~echo_delay:0.
    ~pkt_ts:0.99 ~is_clr:true;
  Alcotest.(check int) "rejection counted" 1 (Tfmcc_core.Rtt_estimator.rejections e);
  Alcotest.(check bool) "measurement still recorded" true
    (Tfmcc_core.Rtt_estimator.has_measurement e);
  let est = Tfmcc_core.Rtt_estimator.estimate e in
  Alcotest.(check bool) "estimate finite positive" true (Float.is_finite est && est > 0.);
  (* NaN raw sample: dropped entirely. *)
  let e2 = new_estimator () in
  on_echo e2 ~now:1.0 ~rx_ts:0.9 ~echo_delay:Float.nan
    ~pkt_ts:0.95 ~is_clr:true;
  Alcotest.(check int) "NaN rejected" 1 (Tfmcc_core.Rtt_estimator.rejections e2);
  Alcotest.(check bool) "NaN sample not a measurement" false
    (Tfmcc_core.Rtt_estimator.has_measurement e2);
  Alcotest.(check (float 1e-9)) "estimate untouched"
    cfg.Tfmcc_core.Config.rtt_initial
    (Tfmcc_core.Rtt_estimator.estimate e2)

(* ------------------------------------------------------------------ *)
(* Time-translation invariance (the satellite property)                 *)
(* ------------------------------------------------------------------ *)

let harness_at ~seed ~epoch =
  Harness.run
    { Harness.default with epoch; seed; sessions = 3; duration = 6. }

(* Shifting every absolute time by +1e9 s must not change one protocol
   decision: the protocol may read absolute time only through
   differences.  The check is exact when both epochs lie in one binade.
   Doubles in [2^30, 2^31) are spaced 2^-22 s (~2.4e-7 s) apart, and
   both epochs below are integers on that grid, so every [epoch + x]
   rounds to [epoch + r(x)] with the same r in both runs and every
   difference of two times is exact.  The runs must agree bit for bit:
   the tolerance is 0.

   A shift from epoch 0 crosses 30 binades and cannot be exact.  At 1e9
   each time value rounds by up to half an ulp, 2^-24 s (~6e-8 s).  An
   RTT sample built from three of them moves by up to ~1.8e-7 s, which
   is ~3.6e-6 relative at the fabric's 50 ms minimum RTT.  The rate is
   linear in 1/RTT, so it moves by as much: that is the most a 0-vs-1e9
   comparison can assert, and only while no decision flips.  The loop
   is closed, though.  Once one comparison lands inside that band (two
   sessions' sends within 1e-7 s of each other, which orders their
   draws from the shared loss RNG, or a threshold test), the runs part
   for good.  Over seeds 1-1000 (3 sessions x 6 s), 3.5% of 0-vs-1e9
   pairs broke a 1e-5 rate tolerance, by up to 9x, and 1.6% differed in
   packet counts.  The earlier 0-vs-1e9 form of this property drew 6
   fresh seeds per run and so failed about one run in five; the seeds
   in [translation_seeds] are ones that broke it. *)
let binade_epoch = 1073741824. (* 2^30 *)

let translation_exact seed =
  let run epoch =
    let r = harness_at ~seed ~epoch in
    ( r.Harness.end_time -. epoch,
      { r with Harness.wall_s = 0.; end_time = 0.; outcomes = []; chaos = None } )
  in
  run binade_epoch = run (binade_epoch +. 1e9)

let prop_time_translation =
  QCheck.Test.make ~name:"epoch shift +1e9 s leaves rate decisions unchanged"
    ~count:6
    QCheck.(int_range 1 10_000)
    translation_exact

let translation_seeds = [ 63; 88; 115; 189 ]

let test_translation_seed seed () =
  Alcotest.(check bool) "bit-identical after +1e9 s" true (translation_exact seed)

(* Same config, same seed, run twice: bit-identical outcomes (the turbo
   loop is deterministic end to end). *)
let test_turbo_determinism () =
  let a = harness_at ~seed:42 ~epoch:0. in
  let b = harness_at ~seed:42 ~epoch:0. in
  Alcotest.(check int) "frames" a.Harness.frames_sent b.Harness.frames_sent;
  List.iter2
    (fun (x : Harness.session_stat) (y : Harness.session_stat) ->
      Alcotest.(check int) "packets" x.packets y.packets;
      Alcotest.(check (float 0.)) "rate bit-identical" x.rate y.rate;
      Alcotest.(check (float 0.)) "rtt bit-identical" x.rtt y.rtt)
    a.Harness.stats b.Harness.stats

(* ------------------------------------------------------------------ *)
(* Firing-order golden digests                                         *)
(* ------------------------------------------------------------------ *)

(* Everything a seeded turbo [Harness.result] reports except host wall
   time, hashed.  A change in the order timers fire moves counts, rates
   or RNG draws, and so the digest: test/golden/rt_digests.txt pins rt
   firing order the way test/golden/digests.txt pins the simulator.
   Regenerate it only for a deliberate behaviour change. *)
let result_digest (r : Harness.result) =
  let b = Buffer.create 4096 in
  let f x = Printf.bprintf b "%h " x and i x = Printf.bprintf b "%d " x in
  let stat (s : Harness.session_stat) =
    i s.session;
    f s.rate;
    i s.packets;
    i s.reports;
    i (Bool.to_int s.starved);
    f s.loss_rate;
    f s.rtt;
    i (Bool.to_int s.rtt_measured);
    i s.failovers;
    i s.starvations;
    Buffer.add_char b '\n'
  in
  List.iter stat r.Harness.stats;
  List.iter
    (fun (sid, o) ->
      i sid;
      match o with
      | Par.Ok s -> stat s
      | Par.Failed { exn; _ } -> Printf.bprintf b "failed %s\n" (Printexc.to_string exn)
      | o -> Printf.bprintf b "%s\n" (Par.outcome_label o))
    r.Harness.outcomes;
  f r.Harness.end_time;
  List.iter i
    [
      r.Harness.timers_fired; r.clock_anomalies; r.frames_sent; r.frames_delivered;
      r.frames_lost; r.frames_blocked; r.encode_drops; r.decode_errors; r.crashes;
      r.restarts; r.stalls; r.sessions_failed; r.loop_exceptions; r.clr_partitioned;
    ];
  (match r.Harness.chaos with
  | None -> Buffer.add_string b "no-chaos"
  | Some c ->
      List.iter i
        (* The two zeros keep the field layout rt_digests.txt was
           recorded with. *)
        [ Chaos.flaps c; 0; Chaos.churn_blocks c; 0 ]);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The [tfmcc-sim loopback] and [tfmcc-sim chaos-rt] defaults at a
   tenth to a quarter of the CI soak sizes. *)
let rt_cfg = { cfg with Tfmcc_core.Config.rtt_initial = 0.15 }

let golden_runs =
  [
    ( "loopback",
      { Harness.default with Harness.sessions = 100; receivers = 4; cfg = rt_cfg; seed = 11 } );
    ("chaos-rt", { Harness.chaos_soak with Harness.sessions = 50; seed = 7 });
  ]

let rt_digests =
  lazy
    (let path =
       if Sys.file_exists "golden/rt_digests.txt" then "golden/rt_digests.txt"
       else "test/golden/rt_digests.txt"
     in
     In_channel.with_open_text path In_channel.input_all
     |> String.split_on_char '\n'
     |> List.filter_map (fun line ->
            match String.split_on_char ' ' (String.trim line) with
            | [ name; digest ] when line.[0] <> '#' -> Some (name, digest)
            | _ -> None))

let test_firing_order_golden name c () =
  match List.assoc_opt name (Lazy.force rt_digests) with
  | None -> Alcotest.failf "%s absent from rt_digests.txt" name
  | Some expected ->
      Alcotest.(check string) (name ^ " digest") expected (result_digest (Harness.run c))

(* ------------------------------------------------------------------ *)
(* Loopback transport                                                  *)
(* ------------------------------------------------------------------ *)

let test_loopback_convergence () =
  let r = Harness.run Harness.default in
  Alcotest.(check int) "no decode errors" 0 r.Harness.decode_errors;
  Alcotest.(check int) "no encode drops" 0 r.Harness.encode_drops;
  Alcotest.(check int) "no clock anomalies in turbo" 0 r.Harness.clock_anomalies;
  Alcotest.(check bool) "frames flowed" true (r.Harness.frames_delivered > 1000);
  Alcotest.(check bool) "losses occurred" true (r.Harness.frames_lost > 0);
  Alcotest.(check (float 1e-9)) "ran to the end" 8.0 r.Harness.end_time;
  List.iter
    (fun (s : Harness.session_stat) ->
      Alcotest.(check bool)
        (Printf.sprintf "session %d converged" s.session)
        true
        (Harness.converged s ~cfg);
      Alcotest.(check bool)
        (Printf.sprintf "session %d measured RTT" s.session)
        true s.rtt_measured)
    r.Harness.stats

(* The warmup field must hold the loss dice: a lossless-warmup run and
   a loss-from-t0 run at the same seed diverge only after warmup. *)
let test_loopback_warmup_holds_loss () =
  let run warmup =
    Harness.run
      {
        Harness.default with
        sessions = 1;
        duration = 1.5;
        impair = Net.impairment ~loss:0.5 ~delay:0.01 ~warmup ();
      }
  in
  let held = run 2.0 in
  let unleashed = run 0.0 in
  Alcotest.(check int) "no losses while the dice are held" 0 held.Harness.frames_lost;
  Alcotest.(check bool) "losses from t0 otherwise" true
    (unleashed.Harness.frames_lost > 0)

(* A data packet as the sender would send it, minus echo and feedback. *)
let data ~seq ~ts ~clr =
    {
      Tfmcc_core.Wire.session = 1;
      seq;
      ts;
      rate = 1e5;
      round = 1;
      round_duration = 0.5;
      max_rtt = 0.1;
      clr;
      in_slowstart = false;
      echo = None;
      fb = None;
      app = -1;
    }

let data_msg ~seq ~ts ~clr = Tfmcc_core.Wire.Data (data ~seq ~ts ~clr)

(* Jitter must not reorder a path: two sources fan data out to three
   group members, which unicast back to the first source, every 2 ms
   under 5 ms of jitter.  On every (src, dst) path, arrivals must be in
   send order at nondecreasing times, with none lost; and some frames
   must have been held back onto the arrival before them, or the test
   proves nothing. *)
let test_net_fifo_horizon () =
  let loop = Loop.create () in
  let net = Net.create loop ~impair:(Net.impairment ~delay:0.1 ~jitter:0.005 ()) () in
  let srcs = List.init 2 (fun _ -> Net.endpoint net ~session:1) in
  let dsts = List.init 3 (fun _ -> Net.endpoint net ~session:1) in
  let sent = Hashtbl.create 8 and arrivals = Hashtbl.create 8 in
  let record dst = function
    | Tfmcc_core.Wire.Data d ->
        let key = (d.clr, Net.endpoint_id dst) in
        let l = Option.value (Hashtbl.find_opt arrivals key) ~default:[] in
        Hashtbl.replace arrivals key ((d.seq, Loop.now loop) :: l)
    | Tfmcc_core.Wire.Report _ -> Alcotest.fail "unexpected report"
  in
  List.iter (fun ep -> Net.set_deliver ep (fun ~size:_ msg -> record ep msg)) (srcs @ dsts);
  List.iter (fun ep -> (Net.env ep).Tfmcc_core.Env.join ()) dsts;
  let send src dest ~n ~dsts =
    let env = Net.env src and id = Net.endpoint_id src in
    env.Tfmcc_core.Env.send ~dest ~flow:0 ~size:1000
      (data_msg ~seq:n ~ts:(Loop.now loop) ~clr:id);
    List.iter (fun d -> Hashtbl.replace sent (id, Net.endpoint_id d) (n + 1)) dsts
  in
  for n = 0 to 199 do
    let time = 0.002 *. float_of_int n in
    ignore
      (Loop.at loop ~time (fun () ->
           List.iter (fun src -> send src Tfmcc_core.Env.To_group ~n ~dsts) srcs;
           List.iter
             (fun dst ->
               let src = List.hd srcs in
               send dst (Tfmcc_core.Env.To_node (Net.endpoint_id src)) ~n ~dsts:[ src ])
             dsts)
        : Tfmcc_core.Env.timer)
  done;
  Loop.run loop;
  Alcotest.(check int) "paths" 9 (Hashtbl.length sent);
  let held = ref 0 in
  Hashtbl.iter
    (fun (src, dst) n ->
      let got = List.rev (Option.value (Hashtbl.find_opt arrivals (src, dst)) ~default:[]) in
      let path = Printf.sprintf "%d->%d" src dst in
      Alcotest.(check (list int))
        (path ^ " in send order") (List.init n Fun.id) (List.map fst got);
      ignore
        (List.fold_left
           (fun prev (seq, at) ->
             if at < prev then Alcotest.failf "%s: frame %d arrived at %g before %g" path seq at prev;
             if at = prev then incr held;
             at)
           neg_infinity got))
    sent;
  Alcotest.(check bool) "jitter held frames on the path horizon" true (!held > 0)

(* Allocation of one steady-state data frame from send to delivery: a
   sender fans it out to 4 group members over a 20 ms path and the loop
   delivers every copy.  The fabric may allocate the frame's codec
   bytes once, and per copy one decode (every copy is decoded, as each
   UDP receiver would decode its own) plus the boxed arrival time;
   what the codec's encoder allocates and 8 words of loop bookkeeping
   per frame come on top.  Nothing sized like the padded 1000-byte
   datagram, and no closure, timer or handle per copy. *)
let test_loopback_frame_words () =
  let loop = Loop.create () in
  let net = Net.create loop ~impair:(Net.impairment ~delay:0.02 ()) () in
  let s_env = Net.env (Net.endpoint net ~session:1) in
  let got = ref 0 in
  for _ = 1 to 4 do
    let ep = Net.endpoint net ~session:1 in
    (Net.env ep).Tfmcc_core.Env.join ();
    Net.set_deliver ep (fun ~size _ -> if size = 1000 then incr got)
  done;
  let d = data ~seq:0 ~ts:0. ~clr:1 in
  let msg = Tfmcc_core.Wire.Data d in
  let send () =
    s_env.Tfmcc_core.Env.send ~dest:Tfmcc_core.Env.To_group ~flow:0 ~size:1000 msg;
    Loop.run loop
  in
  (* Warm up: per-path state, heap arrays. *)
  for _ = 1 to 3 do
    send ()
  done;
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let frame = Tfmcc_core.Wire.encode_data d in
  let codec = float_of_int (1 + (Bytes.length frame / 8) + 1) in
  let encode = words (fun () -> ignore (Tfmcc_core.Wire.encode_data_into frame d)) in
  let decode = words (fun () -> ignore (Tfmcc_core.Wire.decode frame)) in
  let w = words send in
  Alcotest.(check int) "every copy delivered at the datagram size" 16 !got;
  let bound = codec +. encode +. (4. *. (decode +. 4.)) +. 8. in
  if w > bound then
    Alcotest.failf
      "%.0f minor words for one frame to 4 receivers (bound %.0f = %.0f codec bytes + %.0f \
       encode + 4 x (%.0f decode + 4) + 8)"
      w bound codec encode decode

(* Allocation budget of the rt twin of the simulator's star session
   (test_integration): one TFMCC session with 4 receivers on the turbo
   loopback fabric at 1% loss and 20 ms delay, wired straight to the
   endpoints without the harness's supervision.  Minor-heap words per
   loop-second, averaged over 60 s after a warm-up to 30 s and one
   settling second.  The budget is 1.10x the 59761.68 words measured
   once the loop clock became a cell the endpoints read and the heap
   summed deadlines from it, with an allocation-free receiver (69327.42
   before, under a budget of 76260; 70537.30 before the loop ran on the
   shared event heap; 107728.67 before frames were delivered from heap
   slots instead of closures). *)
let test_loopback_minor_words_budget () =
  let loop = Loop.create ~seed:77 () in
  let net =
    Net.create loop ~impair:(Net.impairment ~loss:0.01 ~delay:0.02 ~warmup:2. ()) ()
  in
  let s_ep = Net.endpoint net ~session:1 in
  let rx_eps = List.init 4 (fun _ -> Net.endpoint net ~session:1) in
  let s =
    Tfmcc_core.Session.create ~sender_env:(Net.env s_ep) ~cfg ~session:1
      ~receiver_envs:(List.map Net.env rx_eps) ()
  in
  let snd = Tfmcc_core.Session.sender s in
  Net.set_deliver s_ep (fun ~size:_ msg -> Tfmcc_core.Sender.deliver snd msg);
  List.iter2
    (fun ep r -> Net.set_deliver ep (fun ~size msg -> Tfmcc_core.Receiver.deliver r ~size msg))
    rx_eps (Tfmcc_core.Session.receivers s);
  Tfmcc_core.Session.start s ~at:0.;
  Loop.run ~until:31. loop;
  let w0 = Gc.minor_words () in
  for t = 32 to 91 do
    Loop.run ~until:(float_of_int t) loop
  done;
  let w = (Gc.minor_words () -. w0) /. 60. in
  let budget = 65_738. in
  if w > budget then
    Alcotest.failf "%.2f minor words per loop-second (budget %.0f)" w budget

(* ------------------------------------------------------------------ *)
(* Realtime mode                                                       *)
(* ------------------------------------------------------------------ *)

let test_realtime_loopback_smoke () =
  let r =
    Harness.run
      { Harness.default with sessions = 2; duration = 1.0; mode = Loop.Realtime }
  in
  Alcotest.(check bool) "took about a wall second" true (r.Harness.wall_s >= 0.8);
  Alcotest.(check bool) "frames flowed" true (r.Harness.frames_delivered > 0);
  Alcotest.(check int) "no decode errors" 0 r.Harness.decode_errors

(* A callback that blocks the loop makes the next timer tardy beyond
   the 50 ms tolerance: counted as a clock anomaly, not dropped. *)
let test_realtime_late_timer_counted () =
  let loop = Loop.create ~mode:Loop.Realtime () in
  let fired = ref 0 in
  ignore (Loop.after loop ~delay:0.005 (fun () -> Unix.sleepf 0.12));
  ignore (Loop.after loop ~delay:0.01 (fun () -> incr fired));
  Loop.run loop;
  Alcotest.(check int) "late timer still fired" 1 !fired;
  Alcotest.(check bool) "tardiness counted" true (Loop.clock_anomalies loop >= 1)

let test_udp_smoke () =
  match
    Harness.run
      {
        Harness.default with
        sessions = 1;
        duration = 0.8;
        mode = Loop.Realtime;
        transport = Harness.Udp_sockets;
      }
  with
  | exception Unix.Unix_error (e, fn, _) ->
      (* Sandboxes without loopback sockets: report, don't fail. *)
      Printf.printf "udp smoke skipped: %s in %s\n%!" (Unix.error_message e) fn
  | r ->
      Alcotest.(check bool) "frames crossed the kernel" true
        (r.Harness.frames_delivered > 0);
      Alcotest.(check int) "no decode errors" 0 r.Harness.decode_errors;
      Alcotest.(check int) "no send errors" 0 r.Harness.encode_drops

(* Turbo mode must refuse kernel sockets: the virtual clock outruns
   any real fd. *)
let test_udp_rejects_turbo () =
  let loop = Loop.create ~mode:Loop.Turbo () in
  Alcotest.check_raises "turbo UDP rejected"
    (Invalid_argument "Udp.create: needs a realtime loop (virtual time outruns sockets)") (fun () ->
      ignore (Udp.create loop))

let () =
  Alcotest.run "rt"
    [
      (* The timer suite keeps its original name, "wheel", so its test
         ids stay stable. *)
      ( "wheel",
        [
          Alcotest.test_case "deadline order with ties" `Quick test_wheel_order;
          Alcotest.test_case "cancel" `Quick test_wheel_cancel;
          Alcotest.test_case "overflow migration" `Quick test_wheel_overflow_migration;
          Alcotest.test_case "cancel in overflow" `Quick test_wheel_cancel_overflow;
          Alcotest.test_case "zero-delay chain" `Quick test_wheel_zero_delay_chain;
          Alcotest.test_case "past deadline" `Quick test_wheel_past_deadline;
          Alcotest.test_case "NaN deadline rejected" `Quick
            test_wheel_nan_deadline_rejected;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick
            ~rand:(Random.State.make [| 12 |])
            prop_loop_matches_model;
        ] );
      ( "loop",
        [
          Alcotest.test_case "turbo run until" `Quick test_loop_turbo_until;
          Alcotest.test_case "bad delays clamped" `Quick test_loop_bad_delay;
          Alcotest.test_case "raise keeps same-deadline siblings" `Quick
            test_loop_raise_keeps_siblings;
          Alcotest.test_case "frame raise meets the backstop" `Quick
            test_loop_frame_backstop;
          Alcotest.test_case "runaway zero-delay chain fails" `Quick test_loop_runaway_cap;
          Alcotest.test_case "NaN until rejected" `Quick test_loop_nan_until;
          Alcotest.test_case "harness rejects bad run length" `Quick
            test_harness_rejects_bad_run_length;
        ] );
      ( "clock hardening",
        [
          Alcotest.test_case "monotonic clock clamps" `Quick test_monotonic_clock_clamps;
          Alcotest.test_case "feedback draw clamped" `Quick test_draw_clamped;
          Alcotest.test_case "round duration clamped" `Quick
            test_round_duration_clamped;
          Alcotest.test_case "rtt estimator non-monotonic now" `Quick
            test_rtt_estimator_nonmonotonic_now;
          Alcotest.test_case "rtt estimator bad echo samples" `Quick
            test_rtt_estimator_bad_echo;
        ] );
      ( "time translation",
        [
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 7 |])
            prop_time_translation;
          Alcotest.test_case "turbo determinism" `Quick test_turbo_determinism;
        ]
        @ List.map
            (fun seed ->
              Alcotest.test_case
                (Printf.sprintf "epoch shift +1e9 s, seed %d" seed)
                `Quick (test_translation_seed seed))
            translation_seeds );
      ( "firing order",
        List.map
          (fun (name, c) ->
            Alcotest.test_case (name ^ " golden digest") `Quick
              (test_firing_order_golden name c))
          golden_runs );
      ( "loopback",
        [
          Alcotest.test_case "convergence smoke" `Quick test_loopback_convergence;
          Alcotest.test_case "warmup holds loss" `Quick test_loopback_warmup_holds_loss;
          Alcotest.test_case "minor words budget" `Quick test_loopback_minor_words_budget;
          Alcotest.test_case "FIFO horizon across a delay cut" `Quick test_net_fifo_horizon;
          Alcotest.test_case "words per delivered frame" `Quick test_loopback_frame_words;
        ] );
      ( "realtime",
        [
          Alcotest.test_case "loopback smoke" `Quick test_realtime_loopback_smoke;
          Alcotest.test_case "late timer counted" `Quick
            test_realtime_late_timer_counted;
          Alcotest.test_case "udp smoke" `Quick test_udp_smoke;
          Alcotest.test_case "udp rejects turbo" `Quick test_udp_rejects_turbo;
        ] );
    ]
