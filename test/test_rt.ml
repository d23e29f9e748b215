(* Real-time runtime tests: timer semantics on the loop, loop clock
   hardening and exception behaviour, the time-translation-invariance
   property (shifting the epoch by +1e9 s must not change rate
   decisions), firing-order golden digests, and loopback/UDP transport
   smokes. *)

open Rt

let cfg = Tfmcc_core.Config.default

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
    Loop.frame_at loop ~base:Event_heap.time_zero ~offset:time
      (fun _ _ -> fired := tag :: !fired)
      (data_msg ~seq:0 ~ts:0. ~clr:1) 0
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
  match
    Loop.frame_at loop ~base:Event_heap.time_zero ~offset:Float.nan
      (fun _ _ -> ())
      (data_msg ~seq:0 ~ts:0. ~clr:1) 0
  with
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
   be negative (already due).  A burst (2-16 timers and frames in a
   row at one deadline) builds the heap's tie runs on purpose. *)
type heap_action = Quiet | Spawn of float * int | Cancel_id of int | Emit of float

type heap_op =
  | Sched of float * heap_action
  | Frame of float * bool (* offset, raises *)
  | Cancel of int
  | Advance of float
  | Burst of heap_op list (* timers and frames, all at one offset *)

let rec show_heap_op = function
  | Sched (off, Quiet) -> Printf.sprintf "sched %+g" off
  | Sched (off, Spawn (d, k)) -> Printf.sprintf "sched %+g spawn(%g,%d)" off d k
  | Sched (off, Cancel_id j) -> Printf.sprintf "sched %+g cancel(%d)" off j
  | Sched (off, Emit d) -> Printf.sprintf "sched %+g emit(%g)" off d
  | Frame (off, raises) -> Printf.sprintf "frame %+g%s" off (if raises then " raises" else "")
  | Cancel j -> Printf.sprintf "cancel %d" j
  | Advance d -> Printf.sprintf "advance %g" d
  | Burst ops -> "burst [" ^ String.concat ", " (List.map show_heap_op ops) ^ "]"

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
  let member =
    frequency
      [
        (2, map (fun a off -> Sched (off, a)) action);
        (1, map (fun r off -> Frame (off, r = 0)) (int_bound 5));
      ]
  in
  let op =
    frequency
      [
        (4, map2 (fun o a -> Sched (quarter (o - 2), a)) (int_bound 14) action);
        (2, map2 (fun o r -> Frame (quarter (o - 2), r = 0)) (int_bound 14) (int_bound 5));
        (1, map (fun j -> Cancel j) (int_bound 40));
        (2, map (fun d -> Advance (quarter d)) (int_bound 3));
        ( 1,
          map2
            (fun o ms -> Burst (List.map (fun m -> m (quarter (o - 2))) ms))
            (int_bound 14)
            (list_size (int_range 2 16) member) );
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
  (* One deliver fn for every frame, as one endpoint's: the message's
     [seq] carries the id and the size whether to raise. *)
  let deliver msg raises =
    (match msg with
    | Tfmcc_core.Wire.Data d -> fired := d.seq :: !fired
    | Tfmcc_core.Wire.Report _ -> assert false);
    if raises = 1 then raise Boom
  in
  let frame time raises =
    let id = !next_id in
    incr next_id;
    Loop.frame_at loop ~base:Event_heap.time_zero ~offset:time deliver
      (data_msg ~seq:id ~ts:0. ~clr:1)
      (if raises then 1 else 0)
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
  let rec exec = function
    | Sched (off, a) -> sched (!now +. off) a
    | Frame (off, raises) -> frame (!now +. off) raises
    | Cancel j -> cancel j
    | Advance d ->
        now := !now +. d;
        ignore (run () : bool);
        fired := -1 :: !fired;
        pend := Loop.timers_pending loop :: !pend
    | Burst ops -> List.iter exec ops
  in
  List.iter exec ops;
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
  let rec exec = function
    | Sched (off, a) -> add (!now +. off) (Timer a)
    | Frame (off, raises) -> add (!now +. off) (Frame_entry raises)
    | Cancel j -> cancel j
    | Advance d ->
        now := !now +. d;
        advance ();
        fired := -1 :: !fired;
        pend := List.length !pending :: !pend
    | Burst ops -> List.iter exec ops
  in
  List.iter exec ops;
  let mid_pending = List.length !pending in
  now := !now +. 1000.;
  while List.exists (fun (at, _, _) -> at <= !now) !pending do
    advance ()
  done;
  (List.rev !fired, List.rev !pend, mid_pending, !total)

let prop_loop_matches_model =
  QCheck.Test.make ~name:"fires in exact (deadline, seq) order vs a sorted-list model"
    ~count:500 ~long_factor:20
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
  let deliver msg size =
    got := size :: !got;
    match msg with
    | Tfmcc_core.Wire.Data { seq = 1; _ } -> failwith "boom"
    | _ -> ()
  in
  let queue loop =
    List.iter
      (fun (size, raises) ->
        Loop.frame_at loop ~base:Event_heap.time_zero ~offset:0.1 deliver
          (data_msg ~seq:(if raises then 1 else 0) ~ts:0. ~clr:1)
          size)
      [ (1, false); (2, true); (3, false) ]
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

let new_estimator metrics =
  Tfmcc_core.Rtt_estimator.create ~metrics ~cfg ~clock:rtt_clock ~clock_offset:0. ()

let on_echo r ~now ~rx_ts ~echo_delay ~pkt_ts ~is_clr =
  rtt_clock.cell_time <- now;
  Tfmcc_core.Rtt_estimator.on_echo r ~rx_ts ~echo_delay ~pkt_ts ~is_clr

let on_data r ~now ~pkt_ts =
  rtt_clock.cell_time <- now;
  Tfmcc_core.Rtt_estimator.on_data r ~pkt_ts

let test_rtt_estimator_nonmonotonic_now () =
  let m = Obs.Metrics.create () in
  let anomalies () = Obs.Metrics.sum_counters m "tfmcc_rt_clock_anomaly_total" in
  let e = new_estimator m in
  on_echo e ~now:10.0 ~rx_ts:9.9 ~echo_delay:0.02
    ~pkt_ts:9.95 ~is_clr:true;
  Alcotest.(check int) "no anomaly yet" 0 (anomalies ());
  (* The local clock steps backwards: the sample is clamped to the
     high-water mark, counted, and the estimate stays finite. *)
  on_data e ~now:5.0 ~pkt_ts:9.96;
  Alcotest.(check (list (pair (list (pair string string)) int))) "backstep counted"
    [ ([ ("kind", "rtt-nonmonotonic-now") ], 1) ]
    (Obs.Metrics.labelled_values m "tfmcc_rt_clock_anomaly_total");
  let est = (Tfmcc_core.Rtt_estimator.floats e).rtt in
  Alcotest.(check bool) "estimate still sane" true (Float.is_finite est && est > 0.)

let test_rtt_estimator_bad_echo () =
  let rejections m = Obs.Metrics.counter_value m "check_rtt_sample_rejected_total" in
  let m = Obs.Metrics.create () in
  let e = new_estimator m in
  (* Raw sample local_now - rx_ts - echo_delay is negative: clamped to
     the 1 ms floor, not discarded (the loop is proven closed). *)
  on_echo e ~now:1.0 ~rx_ts:2.0 ~echo_delay:0.
    ~pkt_ts:0.99 ~is_clr:true;
  Alcotest.(check int) "rejection counted" 1 (rejections m);
  Alcotest.(check bool) "measurement still recorded" true
    (Tfmcc_core.Rtt_estimator.has_measurement e);
  let est = (Tfmcc_core.Rtt_estimator.floats e).rtt in
  Alcotest.(check bool) "estimate finite positive" true (Float.is_finite est && est > 0.);
  (* NaN raw sample: dropped entirely. *)
  let m2 = Obs.Metrics.create () in
  let e2 = new_estimator m2 in
  on_echo e2 ~now:1.0 ~rx_ts:0.9 ~echo_delay:Float.nan
    ~pkt_ts:0.95 ~is_clr:true;
  Alcotest.(check int) "NaN rejected" 1 (rejections m2);
  Alcotest.(check bool) "NaN sample not a measurement" false
    (Tfmcc_core.Rtt_estimator.has_measurement e2);
  Alcotest.(check (float 1e-9)) "estimate untouched"
    cfg.Tfmcc_core.Config.rtt_initial
    ((Tfmcc_core.Rtt_estimator.floats e2).rtt)

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
      { r with Harness.wall_s = 0.; end_time = 0.; outcomes = [] } )
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
let result_digest ~(chaos : Chaos.plan) (obs : Obs.Sink.t) (r : Harness.result) =
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
  (match chaos with
  | [] -> Buffer.add_string b "no-chaos"
  | _ ->
      let fired kind =
        Obs.Metrics.labelled_values obs.Obs.Sink.metrics "tfmcc_rt_chaos_events_total"
        |> List.assoc_opt [ ("kind", kind) ]
        |> Option.value ~default:0
      in
      List.iter i
        (* Flaps and churn take-downs; the two zeros keep the field
           layout rt_digests.txt was recorded with. *)
        [ fired "flap_down"; 0; fired "churn_down"; 0 ]);
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
      let obs = Obs.Sink.create () in
      Alcotest.(check string) (name ^ " digest") expected
        (result_digest ~chaos:c.Harness.chaos obs (Harness.run ~obs c))

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
   sender fans it out to 4 group members over a 20 ms path with 5 ms of
   jitter and the loop delivers every copy.  The loss probability is
   too small to drop a copy at this seed, but the loss draw runs for
   each.  The send encodes into the fabric's scratch buffer and
   allocates only its one decode, shared by all four copies: for this
   echo-free frame 25 words ([test_tfmcc_wire]'s codec budget), with no
   closure, timer, handle or boxed arrival time per copy, and nothing
   sized like the padded 1000-byte datagram.  Delivering the copies
   allocates nothing. *)
let test_loopback_frame_words () =
  let loop = Loop.create () in
  let net =
    Net.create loop ~impair:(Net.impairment ~loss:1e-12 ~delay:0.02 ~jitter:0.005 ()) ()
  in
  let s_env = Net.env (Net.endpoint net ~session:1) in
  let got = ref 0 in
  for _ = 1 to 4 do
    let ep = Net.endpoint net ~session:1 in
    (Net.env ep).Tfmcc_core.Env.join ();
    Net.set_deliver ep (fun ~size _ -> if size = 1000 then incr got)
  done;
  let msg = Tfmcc_core.Wire.Data (data ~seq:0 ~ts:0. ~clr:1) in
  let send () = s_env.Tfmcc_core.Env.send ~dest:Tfmcc_core.Env.To_group ~flow:0 ~size:1000 msg in
  (* Warm up: per-path state, heap arrays. *)
  for _ = 1 to 3 do
    send ();
    Loop.run loop
  done;
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let w_send = words send in
  let w_deliver = words (fun () -> Loop.run loop) in
  Alcotest.(check int) "every copy delivered at the datagram size" 16 !got;
  if w_send > 25. then
    Alcotest.failf "send: %.0f minor words for one frame to 4 receivers (bound 25, its decode)"
      w_send;
  if w_deliver > 0. then
    Alcotest.failf "delivery: %.0f minor words for 4 copies (bound 0)" w_deliver

(* A frame that encodes but fails decode (a negative session) still
   goes out as one copy per member and lands on the loop like any
   other; each copy that reaches a deliver hook counts one decode
   error, and a member without a hook counts nothing. *)
let test_loopback_decode_errors () =
  let obs = Obs.Sink.create () in
  let loop = Loop.create ~obs () in
  let net = Net.create loop ~impair:(Net.impairment ~delay:0.01 ~jitter:0.002 ()) () in
  let s_env = Net.env (Net.endpoint net ~session:1) in
  let hooked = ref 0 in
  for i = 1 to 4 do
    let ep = Net.endpoint net ~session:1 in
    (Net.env ep).Tfmcc_core.Env.join ();
    if i <> 2 then Net.set_deliver ep (fun ~size:_ _ -> incr hooked)
  done;
  s_env.Tfmcc_core.Env.send ~dest:Tfmcc_core.Env.To_group ~flow:0 ~size:1000
    (Tfmcc_core.Wire.Data { (data ~seq:0 ~ts:0. ~clr:1) with session = -1 });
  Loop.run loop;
  let value name = Obs.Metrics.counter_value obs.Obs.Sink.metrics name in
  let decode_drops () =
    List.assoc [ ("reason", "decode") ]
      (Obs.Metrics.labelled_values obs.Obs.Sink.metrics "tfmcc_rt_frame_drop_total")
  in
  Alcotest.(check int) "every copy offered" 4 (Net.frames_sent net);
  Alcotest.(check int) "every copy landed" 4 (Loop.timers_fired loop);
  Alcotest.(check int) "one error per hooked copy" 3 (Net.decode_errors net);
  Alcotest.(check int) "decode-drop counter" (Net.decode_errors net) (decode_drops ());
  Alcotest.(check int) "nothing delivered" 0 (Net.frames_delivered net);
  Alcotest.(check int) "delivered counter" 0 (value "tfmcc_rt_frames_delivered_total");
  Alcotest.(check int) "no hook ran" 0 !hooked

(* Allocation budget of the rt twin of the simulator's star session
   (test_integration): one TFMCC session with 4 receivers on the turbo
   loopback fabric at 1% loss and 20 ms delay, wired straight to the
   endpoints without the harness's supervision.  Minor-heap words per
   loop-second, averaged over 60 s after a warm-up to 30 s and one
   settling second.  The budget is 1.10x the 17586.12 words measured
   once the fabric decoded each send once, from one scratch buffer,
   and handed every copy the same message.  Earlier readings: 107728.67
   with a closure per frame in flight, 70537.30 with frames in heap
   slots, 69327.42 on the shared event heap, 59761.68 (budget 65738)
   with the clock cell and an allocation-free receiver, 56774.28 just
   before the codec's encoders allocated nothing, 40497.10 (budget
   44547) once they did, its decoder boxed each float once and the
   fabric scheduled each copy from its path's horizon cell, and
   40492.27 just before the shared decode. *)
let test_loopback_minor_words_budget () =
  let loop = Loop.create ~seed:77 () in
  let net =
    Net.create loop ~impair:(Net.impairment ~loss:0.01 ~delay:0.02 ~warmup:2. ()) ()
  in
  let s_ep = Net.endpoint net ~session:1 in
  let rx_eps = List.init 4 (fun _ -> Net.endpoint net ~session:1) in
  let s =
    Tfmcc_core.Session.build Net.backend ~cfg ~session:1 ~sender:s_ep ~receivers:rx_eps ()
  in
  Tfmcc_core.Session.start s ~at:0.;
  Loop.run ~until:31. loop;
  let w0 = Gc.minor_words () in
  for t = 32 to 91 do
    Loop.run ~until:(float_of_int t) loop
  done;
  let w = (Gc.minor_words () -. w0) /. 60. in
  let budget = 19_345. in
  if w > budget then
    Alcotest.failf "%.2f minor words per loop-second (budget %.0f)" w budget

(* ------------------------------------------------------------------ *)
(* One aggregation tree on either backend                             *)
(* ------------------------------------------------------------------ *)

(* A sender, an aggregator (§6.1) and two receivers that report to it,
   wired through [b] alone: each role gets [b.env] and one typed hook.
   The sender stops at 10 s; at 15 s nothing is in flight.  Every
   receiver report must reach the aggregator, so none reaches the
   sender directly, and the sender must hear the aggregated stream,
   which is thinner than what the aggregator took in. *)
let check_aggregation (b : _ Tfmcc_core.Session.backend) ~id ~sender ~agg ~receivers
    ~run_until =
  let open Tfmcc_core in
  let cfg = { Config.default with use_suppression = false } in
  let snd = Sender.create ~env:(b.env sender) ~cfg ~session:1 () in
  let heard = ref 0 in
  b.on_report sender (fun r ->
      incr heard;
      Sender.deliver_report snd r);
  let a = Aggregator.create ~env:(b.env agg) ~session:1 ~parent:(id sender) in
  b.on_report agg (Aggregator.deliver_report a);
  let rxs =
    List.map
      (fun ep ->
        let r =
          Receiver.create ~env:(b.env ep) ~cfg ~session:1 ~sender:(id sender)
            ~report_to:(id agg) ()
        in
        b.on_data ep (Receiver.deliver_data r);
        Receiver.join r;
        r)
      receivers
  in
  Sender.start snd ~at:0.;
  run_until 10.;
  Sender.stop snd;
  run_until 15.;
  let sent = List.fold_left (fun n r -> n + Receiver.reports_sent r) 0 rxs in
  Alcotest.(check bool) "receivers reported" true (sent > 0);
  Alcotest.(check int) "every receiver report reached the aggregator" sent
    (Aggregator.reports_in a);
  Alcotest.(check bool) "the sender took in aggregated reports" true
    (Sender.reports_received snd > 0);
  Alcotest.(check bool)
    (Printf.sprintf "aggregation thinned %d reports to %d" sent !heard)
    true (!heard < sent)

let test_aggregator_sim () =
  let engine = Netsim.Engine.create ~seed:41 () in
  let topo = Netsim.Topology.create engine in
  let node () = Netsim.Topology.add_node topo in
  let sender = node () and agg = node () in
  let receivers = [ node (); node () ] in
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:1e7 ~delay_s:0.01 sender agg);
  List.iter
    (fun rx -> ignore (Netsim.Topology.connect topo ~bandwidth_bps:1e7 ~delay_s:0.01 agg rx))
    receivers;
  check_aggregation (Netsim_env.backend topo ~session:1) ~id:Netsim.Node.id ~sender ~agg
    ~receivers ~run_until:(fun t -> Netsim.Engine.run ~until:t engine)

let test_aggregator_rt () =
  let loop = Loop.create ~seed:41 () in
  (* The simulator's path delay: two 10 ms hops. *)
  let net = Net.create loop ~impair:(Net.impairment ~delay:0.02 ()) () in
  let ep () = Net.endpoint net ~session:1 in
  let sender = ep () and agg = ep () in
  let receivers = [ ep (); ep () ] in
  check_aggregation Net.backend ~id:Net.endpoint_id ~sender ~agg ~receivers
    ~run_until:(fun t -> Loop.run ~until:t loop)

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

(* Two endpoints on the socket way, or [None] where the host forbids
   sockets (reported, not failed, like the UDP smoke). *)
let udp_pair ~what loop =
  let skipped (e, fn) =
    Printf.printf "%s skipped: %s in %s\n%!" what (Unix.error_message e) fn;
    None
  in
  match Net.create_udp loop with
  | exception Unix.Unix_error (e, fn, _) -> skipped (e, fn)
  | net -> (
      match (Net.endpoint net ~session:1, Net.endpoint net ~session:1) with
      | exception Unix.Unix_error (e, fn, _) ->
          Net.close net;
          skipped (e, fn)
      | a, b -> Some (net, a, b))

let send_to_b a b ?(size = 1000) msg =
  (Net.env a).Tfmcc_core.Env.send
    ~dest:(Tfmcc_core.Env.To_node (Net.endpoint_id b))
    ~flow:0 ~size msg

(* Sockets export the frame families the fabric does.  One endpoint
   sends another valid data frames and a report, plus data frames with
   a negative session, which encode but fail decode; each registry
   counter must equal the transport's own. *)
let test_udp_frame_counters () =
  let obs = Obs.Sink.create () in
  let loop = Loop.create ~mode:Loop.Realtime ~obs () in
  match udp_pair ~what:"udp counters" loop with
  | None -> ()
  | Some (net, a, b) ->
      Net.set_deliver b (fun ~size:_ _ -> ());
      for seq = 0 to 9 do
        send_to_b a b (data_msg ~seq ~ts:0. ~clr:1)
      done;
      for seq = 0 to 2 do
        send_to_b a b (Tfmcc_core.Wire.Data { (data ~seq ~ts:0. ~clr:1) with session = -1 })
      done;
      send_to_b a b ~size:Tfmcc_core.Wire.report_size
        (Tfmcc_core.Wire.Report
           {
             Tfmcc_core.Wire.session = 1;
             rx_id = Net.endpoint_id a;
             ts = 0.;
             echo_ts = 0.;
             echo_delay = 0.;
             rate = 1e5;
             have_rtt = true;
             rtt = 0.05;
             p = 0.01;
             x_recv = 1e5;
             round = 1;
             has_loss = true;
             leaving = false;
           });
      Loop.run ~until:(Loop.now loop +. 0.3) loop;
      Net.close net;
      let m = obs.Obs.Sink.metrics in
      let value name = Obs.Metrics.counter_value m name in
      Alcotest.(check int) "sent" 14 (Net.frames_sent net);
      Alcotest.(check int) "decode errors" 3 (Net.decode_errors net);
      Alcotest.(check int) "delivered" 11 (Net.frames_delivered net);
      Alcotest.(check int) "sent counter" (Net.frames_sent net)
        (value "tfmcc_rt_frames_sent_total");
      Alcotest.(check int) "delivered counter" (Net.frames_delivered net)
        (value "tfmcc_rt_frames_delivered_total");
      Alcotest.(check int) "decode-drop counter" (Net.decode_errors net)
        (List.assoc [ ("reason", "decode") ]
           (Obs.Metrics.labelled_values m "tfmcc_rt_frame_drop_total"))

(* The send-time partition check is shared: on sockets a blocked
   endpoint's datagrams never reach the kernel, and each copy counts
   under the same drop family as on the fabric. *)
let test_udp_partition_drop () =
  let obs = Obs.Sink.create () in
  let loop = Loop.create ~mode:Loop.Realtime ~obs () in
  match udp_pair ~what:"udp partition" loop with
  | None -> ()
  | Some (net, a, b) ->
      let got = ref 0 in
      Net.set_deliver b (fun ~size:_ _ -> incr got);
      Net.block net (Net.endpoint_id b);
      for seq = 0 to 4 do
        send_to_b a b (data_msg ~seq ~ts:0. ~clr:1)
      done;
      Net.unblock net (Net.endpoint_id b);
      send_to_b a b (data_msg ~seq:5 ~ts:0. ~clr:1);
      Loop.run ~until:(Loop.now loop +. 0.3) loop;
      Net.close net;
      Alcotest.(check int) "only the copy after the heal landed" 1 !got;
      Alcotest.(check int) "partition drops" 5 (Net.partition_drops net);
      Alcotest.(check int) "partition counter" 5
        (List.assoc [ ("reason", "partition") ]
           (Obs.Metrics.labelled_values obs.Obs.Sink.metrics "tfmcc_rt_frame_drop_total"))

(* [Partition_clr] runs on sockets too: the harness blocks each
   session's CLR on the one transport it built. *)
let test_udp_partition_clr () =
  match
    Harness.run
      {
        Harness.default with
        sessions = 1;
        receivers = 2;
        duration = 1.0;
        cfg = { Tfmcc_core.Config.default with rtt_initial = 0.05 };
        mode = Loop.Realtime;
        transport = Harness.Udp_sockets;
        faults = [ Harness.Partition_clr { at = 0.6; until = 0.8 } ];
      }
  with
  | exception Unix.Unix_error (e, fn, _) ->
      Printf.printf "udp partition_clr skipped: %s in %s\n%!" (Unix.error_message e) fn
  | r ->
      Alcotest.(check int) "CLR partitioned" 1 r.Harness.clr_partitioned;
      Alcotest.(check bool) "its copies dropped" true (r.Harness.frames_blocked > 0)

(* Turbo mode must refuse kernel sockets: the virtual clock outruns
   any real fd. *)
let test_udp_rejects_turbo () =
  let loop = Loop.create ~mode:Loop.Turbo () in
  Alcotest.check_raises "turbo UDP rejected"
    (Invalid_argument "Net.create_udp: needs a realtime loop (virtual time outruns sockets)")
    (fun () -> ignore (Net.create_udp loop))

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
          Alcotest.test_case "decode errors per copy" `Quick test_loopback_decode_errors;
        ] );
      ( "backends",
        [
          Alcotest.test_case "aggregator on the simulator" `Quick test_aggregator_sim;
          Alcotest.test_case "aggregator on the loopback fabric" `Quick test_aggregator_rt;
        ] );
      ( "realtime",
        [
          Alcotest.test_case "loopback smoke" `Quick test_realtime_loopback_smoke;
          Alcotest.test_case "late timer counted" `Quick
            test_realtime_late_timer_counted;
          Alcotest.test_case "udp smoke" `Quick test_udp_smoke;
          Alcotest.test_case "udp rejects turbo" `Quick test_udp_rejects_turbo;
          Alcotest.test_case "udp frame counters" `Quick test_udp_frame_counters;
          Alcotest.test_case "udp partition drop" `Quick test_udp_partition_drop;
          Alcotest.test_case "udp partition_clr" `Quick test_udp_partition_clr;
        ] );
    ]
