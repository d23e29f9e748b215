(* Chaos + supervision tests for the real-time runtime (ISSUE 9): the
   Chaos plan primitives on the loopback fabric, the Loop exception
   backstop, session crash isolation / restart / stall supervision in
   the harness, the rt mirror of the simulator's
   CLR-partition-mid-slowstart scenario, and the UDP error taxonomy.
   Everything runs in turbo mode with fixed seeds — every run here is
   deterministic, and two of the tests assert exactly that. *)

open Rt

let cfg = Tfmcc_core.Config.default

let invalid f = try f (); false with Invalid_argument _ -> true

let mk_data ~session ~seq =
  Tfmcc_core.Wire.Data
    {
      Tfmcc_core.Wire.session;
      seq;
      ts = 0.1;
      rate = 1000.;
      round = 1;
      round_duration = 0.5;
      max_rtt = 0.1;
      clr = -1;
      in_slowstart = false;
      echo = None;
      fb = None;
      app = -1;
    }

(* ------------------------------------------------------------------ *)
(* Chaos plan validation                                               *)
(* ------------------------------------------------------------------ *)

let test_plan_validation () =
  let ok plan = Chaos.validate plan in
  ok [ Chaos.Flap { down_at = 1.; up_at = 2. } ];
  ok
    [
      Chaos.Churn
        {
          sessions = [];
          fraction = 0.5;
          from_ = 1.;
          until = 5.;
          period = 1.;
          down_for = 0.4;
        };
    ];
  Alcotest.(check bool)
    "flap window inverted" true
    (invalid (fun () -> Chaos.validate [ Chaos.Flap { down_at = 2.; up_at = 2. } ]));
  Alcotest.(check bool)
    "churn fraction 0" true
    (invalid (fun () ->
         Chaos.validate
           [
             Chaos.Churn
               {
                 sessions = [];
                 fraction = 0.;
                 from_ = 1.;
                 until = 2.;
                 period = 1.;
                 down_for = 0.5;
               };
           ]));
  Alcotest.(check bool)
    "NaN time" true
    (invalid (fun () ->
         Chaos.validate [ Chaos.Flap { down_at = Float.nan; up_at = 2. } ]))

(* ------------------------------------------------------------------ *)
(* Fabric chaos primitives                                             *)
(* ------------------------------------------------------------------ *)

(* One raw sender endpoint streaming a data frame every 10 ms to one
   joined receiver, so drop windows are visible in the counters without
   protocol machinery on top. *)
let raw_pair ~plan ~until =
  let loop = Loop.create ~mode:Loop.Turbo ~obs:(Obs.Sink.create ()) ~seed:3 () in
  let net = Net.create loop () in
  let tx = Net.endpoint net ~session:1 in
  let rx = Net.endpoint net ~session:1 in
  let rx_env = Net.env rx in
  rx_env.Tfmcc_core.Env.join ();
  let got = ref [] in
  Net.set_deliver rx (fun ~size:_ _ -> got := Loop.now loop :: !got);
  let tx_env = Net.env tx in
  let seq = ref 0 in
  let rec tick () =
    incr seq;
    tx_env.Tfmcc_core.Env.send ~dest:Tfmcc_core.Env.To_group ~flow:0 ~size:100
      (mk_data ~session:1 ~seq:!seq);
    if Loop.now loop < until then
      tx_env.Tfmcc_core.Env.after_unit ~delay:0.01 tick
  in
  tick ();
  ignore (Chaos.apply net plan : Chaos.t);
  Loop.run ~until loop;
  (net, List.rev !got)

(* Chaos events of one kind fired so far, from the registry. *)
let fired obs kind =
  Obs.Metrics.labelled_values obs.Obs.Sink.metrics "tfmcc_rt_chaos_events_total"
  |> List.assoc_opt [ ("kind", kind) ]
  |> Option.value ~default:0

let test_flap_window () =
  let net, got = raw_pair ~plan:[ Chaos.Flap { down_at = 1.; up_at = 2. } ] ~until:3. in
  Alcotest.(check int) "one flap" 1 (fired (Loop.obs (Net.loop net)) "flap_down");
  Alcotest.(check bool) "fabric back up" true (Net.fabric_up net);
  Alcotest.(check bool) "frames dropped while down" true (Net.flap_drops net > 50);
  let in_window =
    List.exists (fun t -> t > 1.05 && t < 1.95) got
  in
  Alcotest.(check bool) "nothing landed mid-flap" false in_window;
  Alcotest.(check bool)
    "delivery resumed after up" true
    (List.exists (fun t -> t > 2.05) got)

let test_block_refcount () =
  let loop = Loop.create ~mode:Loop.Turbo ~seed:1 () in
  let net = Net.create loop () in
  Alcotest.(check bool) "initially unblocked" false (Net.is_blocked net 7);
  Net.block net 7;
  Net.block net 7;
  Alcotest.(check bool) "blocked" true (Net.is_blocked net 7);
  Alcotest.(check int) "distinct count" 1 (Net.blocked_count net);
  Net.unblock net 7;
  Alcotest.(check bool) "still blocked (refcount 1)" true (Net.is_blocked net 7);
  Net.unblock net 7;
  Alcotest.(check bool) "fully unblocked" false (Net.is_blocked net 7);
  Alcotest.(check int) "count zero" 0 (Net.blocked_count net);
  Net.unblock net 7 (* below zero: no-op *);
  Alcotest.(check int) "no underflow" 0 (Net.blocked_count net)

(* ------------------------------------------------------------------ *)
(* Loop: periodic timers and the exception backstop                    *)
(* ------------------------------------------------------------------ *)

let test_loop_every () =
  let loop = Loop.create ~mode:Loop.Turbo ~seed:1 () in
  let fired = ref 0 in
  let timer = Loop.every loop ~interval:0.1 (fun () -> incr fired) in
  Loop.run ~until:1.05 loop;
  Alcotest.(check int) "ten firings" 10 !fired;
  timer.Tfmcc_core.Env.cancel ();
  Loop.run ~until:2.0 loop;
  Alcotest.(check int) "cancelled: no more" 10 !fired;
  Alcotest.(check bool)
    "bad interval rejected" true
    (invalid (fun () -> ignore (Loop.every loop ~interval:0. (fun () -> ()))))

let test_loop_backstop () =
  let loop = Loop.create ~mode:Loop.Turbo ~seed:1 () in
  let handled = ref 0 in
  Loop.set_exn_handler loop (fun _ _ -> incr handled);
  let survivors = ref 0 in
  (* Same-tick sibling must survive the crash of the timer before it. *)
  ignore (Loop.after loop ~delay:0.1 (fun () -> failwith "boom"));
  ignore (Loop.after loop ~delay:0.1 (fun () -> incr survivors));
  let chain = ref 0 in
  ignore
    (Loop.every loop ~interval:0.05 (fun () ->
         incr chain;
         if !chain <= 2 then failwith "periodic boom"));
  Loop.run ~until:0.30 loop;
  Alcotest.(check int) "handler saw the one-shot + 2 periodic crashes" 3 !handled;
  Alcotest.(check int) "sibling timer survived" 1 !survivors;
  Alcotest.(check bool) "periodic chain survived its crashes" true (!chain >= 5);
  Alcotest.(check int) "counted" 3 (Loop.exceptions_caught loop)

(* ------------------------------------------------------------------ *)
(* Socket error taxonomy                                               *)
(* ------------------------------------------------------------------ *)

let test_udp_classify () =
  let check_class name err expect =
    Alcotest.(check bool) name true (Net.classify err = expect)
  in
  check_class "EAGAIN transient" Unix.EAGAIN Net.Transient;
  check_class "ENOBUFS transient" Unix.ENOBUFS Net.Transient;
  check_class "EINTR transient" Unix.EINTR Net.Transient;
  check_class "ECONNREFUSED degraded" Unix.ECONNREFUSED Net.Degraded;
  check_class "EHOSTUNREACH degraded" Unix.EHOSTUNREACH Net.Degraded;
  check_class "EMSGSIZE degraded" Unix.EMSGSIZE Net.Degraded;
  check_class "EBADF fatal" Unix.EBADF Net.Fatal;
  check_class "EINVAL fatal" Unix.EINVAL Net.Fatal;
  Alcotest.(check string) "eagain label" "eagain" (Net.kind_of_error Unix.EAGAIN);
  Alcotest.(check string) "enobufs label" "enobufs" (Net.kind_of_error Unix.ENOBUFS);
  Alcotest.(check string) "fatal label" "fatal" (Net.kind_of_error Unix.EBADF)

(* ------------------------------------------------------------------ *)
(* rt mirror of the simulator's CLR-partition-mid-slowstart test       *)
(* ------------------------------------------------------------------ *)

(* test_faults.ml runs this on the simulator: partition the only
   receiver (the CLR) mid-slowstart, watch the sender starve and decay,
   heal, watch it fail over back to a CLR and recover.  Here the same
   story plays out on the loopback fabric in turbo mode with a fixed
   seed.  Warmup 3 s holds the loss dice, so at t=2.5 the sender is
   still provably in slowstart when the partition lands. *)
let test_clr_partition_mid_slowstart_rt () =
  let loop = Loop.create ~mode:Loop.Turbo ~seed:5 () in
  let net =
    Net.create loop
      ~impair:(Net.impairment ~loss:0.02 ~delay:0.025 ~jitter:0.005 ~warmup:3. ())
      ()
  in
  let tx = Net.endpoint net ~session:1 in
  let rx = Net.endpoint net ~session:1 in
  let s =
    Tfmcc_core.Session.build Net.backend ~cfg ~session:1 ~sender:tx ~receivers:[ rx ] ()
  in
  let snd = Tfmcc_core.Session.sender s in
  Tfmcc_core.Session.start s ~at:0.;
  let t_cut = 2.5 and t_heal = 12.0 in
  let pre_slowstart = ref false and pre_clr = ref None and pre_rate = ref 0. in
  ignore
    (Loop.at loop ~time:(t_cut -. 0.05) (fun () ->
         pre_slowstart := Tfmcc_core.Sender.in_slowstart snd;
         pre_clr := Tfmcc_core.Sender.clr snd;
         pre_rate := Tfmcc_core.Sender.rate_bytes_per_s snd));
  ignore (Loop.at loop ~time:t_cut (fun () -> Net.block net (Net.endpoint_id rx)));
  let outage_starved = ref false
  and outage_clr = ref None
  and outage_rate = ref 0.
  and outage_timeouts = ref 0 in
  ignore
    (Loop.at loop ~time:(t_heal -. 0.5) (fun () ->
         outage_starved := Tfmcc_core.Sender.is_starved snd;
         outage_clr := Tfmcc_core.Sender.clr snd;
         outage_rate := Tfmcc_core.Sender.rate_bytes_per_s snd;
         outage_timeouts := Tfmcc_core.Sender.clr_timeouts snd));
  ignore (Loop.at loop ~time:t_heal (fun () -> Net.unblock net (Net.endpoint_id rx)));
  Loop.run ~until:(t_heal +. 10.) loop;
  (* Before the cut: slowstart, with a CLR elected. *)
  Alcotest.(check bool) "mid-slowstart at the cut" true !pre_slowstart;
  Alcotest.(check bool) "CLR elected before the cut" true (!pre_clr <> None);
  (* During the outage: starved, decayed, CLR dropped. *)
  Alcotest.(check bool) "starved during outage" true !outage_starved;
  Alcotest.(check bool)
    "rate decayed below 75% of pre-cut" true
    (!outage_rate < 0.75 *. !pre_rate);
  Alcotest.(check (option int)) "CLR dropped during outage" None !outage_clr;
  Alcotest.(check bool) "CLR timeout observed" true (!outage_timeouts >= 1);
  (* After the heal: failover, starvation cleared, rate recovered. *)
  Alcotest.(check bool)
    "failover after heal" true
    (Tfmcc_core.Sender.clr_failovers snd >= 1);
  Alcotest.(check bool) "not starved at end" false (Tfmcc_core.Sender.is_starved snd);
  Alcotest.(check bool)
    "CLR re-elected" true
    (Tfmcc_core.Sender.clr snd <> None);
  Alcotest.(check bool)
    "rate recovered well above outage floor" true
    (Tfmcc_core.Sender.rate_bytes_per_s snd > 4. *. !outage_rate)

(* ------------------------------------------------------------------ *)
(* Harness supervision                                                 *)
(* ------------------------------------------------------------------ *)

(* Lossless, jitter-free fabric: with no shared impairment RNG draws,
   sessions are fully independent, so the *unaffected* sessions of a
   chaos run must match a clean run bit for bit.  The rate cap stands
   in for link capacity — without loss the fabric never ends slowstart,
   and an uncapped doubling rate would flood the wheel. *)
let iso_config =
  {
    Harness.default with
    Harness.sessions = 3;
    receivers = 1;
    duration = 10.;
    impair = Net.impairment ~delay:0.025 ();
    cfg = { Tfmcc_core.Config.default with Tfmcc_core.Config.max_rate = 125_000. };
    seed = 11;
  }

let test_crash_isolation () =
  let clean = Harness.run iso_config in
  let chaotic =
    Harness.run
      { iso_config with Harness.faults = [ Harness.Kill_session { session = 2; at = 2. } ] }
  in
  Alcotest.(check int) "one crash" 1 chaotic.Harness.crashes;
  Alcotest.(check int) "one restart" 1 chaotic.Harness.restarts;
  Alcotest.(check int) "nothing failed" 0 chaotic.Harness.sessions_failed;
  Alcotest.(check int) "nothing hit the backstop" 0 chaotic.Harness.loop_exceptions;
  let stat r sid = List.find (fun s -> s.Harness.session = sid) r.Harness.stats in
  (* Bit-identical bystanders: crash isolation means sessions 1 and 3
     cannot tell the difference. *)
  List.iter
    (fun sid ->
      Alcotest.(check bool)
        (Printf.sprintf "session %d unaffected by the kill" sid)
        true
        (stat clean sid = stat chaotic sid))
    [ 1; 3 ];
  (* And the killed session came back and converged. *)
  let s2 = stat chaotic 2 in
  Alcotest.(check bool) "killed session converged after restart" true
    (Harness.converged s2 ~cfg);
  List.iter
    (fun (sid, o) ->
      Alcotest.(check string)
        (Printf.sprintf "outcome %d ok" sid)
        "ok" (Par.outcome_label o))
    chaotic.Harness.outcomes

(* A churn spec naming a session the harness does not run would churn
   nothing ([Net.members] of an unknown session is empty): a config
   error, like a fault naming one. *)
let test_churn_unknown_session_rejected () =
  let churn sessions =
    Chaos.Churn
      { sessions; fraction = 0.5; from_ = 1.; until = 3.; period = 1.; down_for = 0.4 }
  in
  Alcotest.(check bool)
    "session 999 of 4 rejected" true
    (invalid (fun () ->
         ignore (Harness.run { Harness.default with Harness.chaos = [ churn [ 999 ] ] })));
  Alcotest.(check bool)
    "session 0 rejected" true
    (invalid (fun () ->
         ignore (Harness.run { Harness.default with Harness.chaos = [ churn [ 2; 0 ] ] })))

(* A kill window that ends at or before its start never fires. *)
let test_kill_every_empty_window_rejected () =
  List.iter
    (fun until ->
      Alcotest.(check bool)
        (Printf.sprintf "until %g <= at 2 rejected" until)
        true
        (invalid (fun () ->
             ignore
               (Harness.run
                  {
                    Harness.default with
                    Harness.faults =
                      [
                        Harness.Kill_session_every
                          { session = 1; at = 2.; period = 0.5; until };
                      ];
                  }))))
    [ 2.; 1. ]

let test_persistent_crash_fails () =
  let r =
    Harness.run
      {
        iso_config with
        Harness.sessions = 2;
        duration = 12.;
        faults =
          [
            Harness.Kill_session_every
              { session = 1; at = 1.; period = 0.5; until = 12. };
          ];
      }
  in
  (* A session is restarted at most 3 times. *)
  Alcotest.(check int) "restarts exhausted" 3 r.Harness.restarts;
  Alcotest.(check int) "crashes = restarts + 1" 4 r.Harness.crashes;
  Alcotest.(check int) "one session failed" 1 r.Harness.sessions_failed;
  (match List.assoc 1 r.Harness.outcomes with
  | Par.Failed _ -> ()
  | o -> Alcotest.failf "expected Failed, got %s" (Par.outcome_label o));
  (match List.assoc 2 r.Harness.outcomes with
  | Par.Ok s ->
      Alcotest.(check bool) "bystander converged" true (Harness.converged s ~cfg)
  | o -> Alcotest.failf "expected Ok, got %s" (Par.outcome_label o));
  Alcotest.(check int) "backstop untouched" 0 r.Harness.loop_exceptions

let test_stall_watchdog () =
  let r =
    Harness.run
      {
        iso_config with
        Harness.sessions = 2;
        duration = 12.;
        supervise = { Harness.probe_interval = 0.25 };
        faults = [ Harness.Stop_sender { session = 1; at = 2. } ];
      }
  in
  Alcotest.(check bool) "stall detected" true (r.Harness.stalls >= 1);
  Alcotest.(check bool) "restarted" true (r.Harness.restarts >= 1);
  Alcotest.(check int) "no crash involved" 0 r.Harness.crashes;
  (match List.assoc 1 r.Harness.outcomes with
  | Par.Ok s ->
      Alcotest.(check bool)
        "stalled session recovered and converged" true (Harness.converged s ~cfg)
  | o -> Alcotest.failf "expected Ok after restart, got %s" (Par.outcome_label o));
  Alcotest.(check int) "backstop untouched" 0 r.Harness.loop_exceptions

(* Two overlapping CLR partitions hold the CLR dark until the later
   heal: [P(3,6); P(4,8)] must block exactly the frames [P(3,8)] does,
   the first heal releasing only its own block. *)
let test_overlapping_clr_partitions () =
  let run faults =
    Harness.run
      { Harness.default with Harness.sessions = 1; receivers = 1; duration = 10.; faults }
  in
  let p at until = Harness.Partition_clr { at; until } in
  let overlapping = run [ p 3. 6.; p 4. 8. ] in
  let single = run [ p 3. 8. ] in
  Alcotest.(check int) "both windows blocked the CLR" 2 overlapping.Harness.clr_partitioned;
  Alcotest.(check int) "blocked frames of one 3-8 s window" single.Harness.frames_blocked
    overlapping.Harness.frames_blocked

(* ------------------------------------------------------------------ *)
(* Chaos soak: determinism and survival                                *)
(* ------------------------------------------------------------------ *)

(* The chaos-rt plan at a tenth of its sessions. *)
let soak_config = { Harness.chaos_soak with Harness.sessions = 20; seed = 7 }

let strip_wall r = { r with Harness.wall_s = 0. }

let test_chaos_determinism () =
  let run () =
    let obs = Obs.Sink.create () in
    let r = strip_wall (Harness.run ~obs soak_config) in
    (r, (fired obs "flap_down", fired obs "churn_down"))
  in
  let a, counts_a = run () and b, counts_b = run () in
  (* The result records contain only floats/ints/lists — structural
     equality is bit-identity. *)
  Alcotest.(check bool) "two runs bit-identical" true (a = b);
  Alcotest.(check bool) "chaos counters identical" true (counts_a = counts_b);
  Alcotest.(check bool) "chaos actually ran" true (counts_a > (0, 0))

let test_chaos_soak_survives () =
  let r = Harness.run soak_config in
  Alcotest.(check int) "nothing hit the backstop" 0 r.Harness.loop_exceptions;
  Alcotest.(check int) "no session failed" 0 r.Harness.sessions_failed;
  Alcotest.(check int) "every CLR was partitioned" 20 r.Harness.clr_partitioned;
  Alcotest.(check bool) "chaos drops happened" true (r.Harness.frames_blocked > 0);
  let conv =
    List.length (List.filter (Harness.converged ~cfg) r.Harness.stats)
  in
  Alcotest.(check bool)
    (Printf.sprintf "most sessions converged (%d/20)" conv)
    true (conv >= 16);
  let failovers =
    List.fold_left (fun a s -> a + s.Harness.failovers) 0 r.Harness.stats
  in
  Alcotest.(check bool) "failovers under CLR partition" true (failovers >= 1)

let () =
  Alcotest.run "chaos-rt"
    [
      ( "chaos plans",
        [
          Alcotest.test_case "validation" `Quick test_plan_validation;
          Alcotest.test_case "flap window" `Quick test_flap_window;
          Alcotest.test_case "block refcount" `Quick test_block_refcount;
        ] );
      ( "loop hardening",
        [
          Alcotest.test_case "every" `Quick test_loop_every;
          Alcotest.test_case "exception backstop" `Quick test_loop_backstop;
        ] );
      ( "udp errors",
        [ Alcotest.test_case "classification" `Quick test_udp_classify ] );
      ( "clr partition",
        [
          Alcotest.test_case "mid-slowstart partition, failover, recovery"
            `Quick test_clr_partition_mid_slowstart_rt;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "crash isolation" `Quick test_crash_isolation;
          Alcotest.test_case "persistent crash fails" `Quick
            test_persistent_crash_fails;
          Alcotest.test_case "stall watchdog restart" `Quick test_stall_watchdog;
          Alcotest.test_case "overlapping CLR partitions" `Quick
            test_overlapping_clr_partitions;
          Alcotest.test_case "churn of an unknown session rejected" `Quick
            test_churn_unknown_session_rejected;
          Alcotest.test_case "empty kill window rejected" `Quick
            test_kill_every_empty_window_rejected;
        ] );
      ( "soak",
        [
          Alcotest.test_case "determinism" `Quick test_chaos_determinism;
          Alcotest.test_case "survival under chaos" `Quick test_chaos_soak_survives;
        ] );
    ]
