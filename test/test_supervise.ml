(* Supervised sweep execution (DESIGN.md §12): Par.Control semantics,
   structured task outcomes, the crash/timeout/stall fault-injection
   paths through Sweep.run, retry-with-backoff, the failure report's
   JSON shape, and serial/parallel agreement. *)

let quick = Experiments.Scenario.Quick

let find id =
  match Experiments.Registry.find id with
  | Some e -> e
  | None -> Alcotest.failf "registry should resolve %s" id

(* ------------------------------------------------------------- probes *)

(* Fault-injecting experiments, handed to the sweep through
   [~experiments].  On success a probe returns a tiny series derived
   from the seed alone, so a retried run renders byte-identically to a
   first-try success. *)
exception Injected of string

let probe id title run =
  { Experiments.Registry.id; figure = "Supervisor"; title; run }

let ok_series ~id ~seed =
  [
    Experiments.Series.make
      ~title:(Printf.sprintf "%s: fault-injection probe (seed %d)" id seed)
      ~xlabel:"step" ~ylabels:[ "value" ] ~notes:[]
      [ (0., [ float_of_int seed ]); (1., [ float_of_int (seed * 2) ]) ];
  ]

let xcrash =
  probe "xcrash" "task crashes deterministically" (fun ~mode:_ ~seed:_ ->
      raise (Injected "xcrash: injected deterministic task failure"))

(* Fails on its first call and succeeds from the second; each call of
   [xflaky ()] is a fresh probe with its own count. *)
let xflaky () =
  let calls = Atomic.make 0 in
  probe "xflaky" "task fails once, succeeds on retry" (fun ~mode:_ ~seed ->
      if Atomic.fetch_and_add calls 1 = 0 then
        raise (Injected "xflaky: injected failure on the first call")
      else ok_series ~id:"xflaky" ~seed)

(* Livelock: a callback that reschedules itself at the current simulated
   instant, freezing the clock while the event count climbs.  Capped at
   2M events so it terminates even under a watchdog that misses it. *)
let xstall =
  probe "xstall" "simulated time livelocks" (fun ~mode:_ ~seed ->
      let e = (Experiments.Scenario.base ~seed ()).Experiments.Scenario.engine in
      let spun = ref 0 in
      let rec spin () =
        incr spun;
        if !spun < 2_000_000 then
          ignore (Netsim.Engine.at e ~time:(Netsim.Engine.now e) spin)
      in
      ignore (Netsim.Engine.at e ~time:0.1 spin);
      Netsim.Engine.run ~until:1.0 e;
      ok_series ~id:"xstall" ~seed)

(* Wall-clock hog with few events: each event sleeps 2 ms and advances
   simulated time, so only the watchdog's wall-clock poll catches it.
   Capped at 1500 events (about 3 s). *)
let xsleep =
  probe "xsleep" "task burns wall clock on few events" (fun ~mode:_ ~seed ->
      let e = (Experiments.Scenario.base ~seed ()).Experiments.Scenario.engine in
      let n = ref 0 in
      let rec tick () =
        incr n;
        Unix.sleepf 0.002;
        if !n < 1_500 then ignore (Netsim.Engine.after e ~delay:0.001 tick)
      in
      ignore (Netsim.Engine.after e ~delay:0.001 tick);
      Netsim.Engine.run ~until:5.0 e;
      ok_series ~id:"xsleep" ~seed)

let policy = Experiments.Sweep.default_policy

(* ------------------------------------------------------------ control *)

let test_control_timeout () =
  let c = Par.Control.create ~timeout:0.005 () in
  Par.Control.check c;
  Unix.sleepf 0.02;
  (match Par.Control.check c with
  | () -> Alcotest.fail "expired deadline should raise"
  | exception Par.Cancelled (Par.Timeout t) ->
      Alcotest.(check (float 1e-9)) "carries the budget" 0.005 t);
  (* arm resets the deadline and clears the pending reason *)
  Par.Control.arm c ~timeout:10. ();
  Par.Control.check c

let test_control_cancel () =
  let c = Par.Control.create () in
  Par.Control.cancel c (Par.Stall "stuck");
  (match Par.Control.check c with
  | () -> Alcotest.fail "cancelled control should raise"
  | exception Par.Cancelled (Par.Stall r) ->
      Alcotest.(check string) "reason" "stuck" r);
  (* the inert control never fires, even when "cancelled" *)
  Par.Control.cancel Par.Control.none (Par.Stall "ignored");
  Par.Control.check Par.Control.none

(* ----------------------------------------------------------- outcomes *)

exception Boom of int

let test_map_outcomes_classifies () =
  List.iter
    (fun jobs ->
      let tasks =
        [
          (fun _ -> 10);
          (fun _ -> raise (Boom 1));
          (fun (c : Par.Control.t) ->
            Par.Control.cancel c (Par.Stall "no progress");
            Par.Control.check c;
            0);
          (fun _ -> 13);
        ]
      in
      match Par.map_outcomes ~jobs tasks with
      | [ Par.Ok a; Par.Failed { exn = Boom 1; _ }; Par.Stalled { reason }; Par.Ok b ]
        ->
          Alcotest.(check int) "first" 10 a;
          Alcotest.(check string) "stall reason" "no progress" reason;
          Alcotest.(check int) "last" 13 b
      | outcomes ->
          Alcotest.failf "jobs=%d: unexpected outcomes [%s]" jobs
            (String.concat "; " (List.map Par.outcome_label outcomes)))
    [ 1; 4 ]

let test_map_outcomes_timeout () =
  match
    Par.map_outcomes ~jobs:1 ~timeout:0.005
      [
        (fun (c : Par.Control.t) ->
          Unix.sleepf 0.02;
          Par.Control.check c;
          0);
      ]
  with
  | [ Par.Timed_out { after } ] ->
      Alcotest.(check (float 1e-9)) "budget" 0.005 after
  | outcomes ->
      Alcotest.failf "unexpected outcomes [%s]"
        (String.concat "; " (List.map Par.outcome_label outcomes))

let test_nested_submit_names_task () =
  let pool = Par.Pool.create ~jobs:2 () in
  Fun.protect
    ~finally:(fun () -> Par.Pool.shutdown pool)
    (fun () ->
      match
        Par.Pool.map pool
          [
            (fun () -> 0);
            (fun () -> Par.Pool.map pool [ (fun () -> 1) ] |> List.hd);
          ]
      with
      | _ -> Alcotest.fail "nested submit should raise"
      | exception Invalid_argument msg ->
          let mentions_index =
            let sub = "task #1" in
            let n = String.length msg and m = String.length sub in
            let rec scan i =
              i + m <= n && (String.sub msg i m = sub || scan (i + 1))
            in
            scan 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "message names the offending task: %S" msg)
            true mentions_index)

(* ------------------------------------------------- supervised failures *)

let supervised ?(policy = policy) ?(jobs = 1) experiments =
  Experiments.Sweep.run ~experiments ~policy ~jobs ~mode:quick ~seed:42 ()

let the_failure (r : Experiments.Sweep.report) =
  match r.failures with
  | [ f ] -> f
  | fs -> Alcotest.failf "expected exactly one failure, got %d" (List.length fs)

let test_crash_failure () =
  let r = supervised [ xcrash ] in
  let f = the_failure r in
  Alcotest.(check string) "cause" "crashed"
    (Experiments.Sweep.cause_label f.f_cause);
  Alcotest.(check string) "experiment" "xcrash" f.f_experiment;
  Alcotest.(check int) "seed" 42 f.f_seed;
  Alcotest.(check int) "fail fast" 1 f.f_attempts;
  Alcotest.(check int) "exit code" 3 (Experiments.Sweep.exit_code r);
  Alcotest.(check bool) "no results" true (r.results = [])

let test_crash_retries_exhausted () =
  let r = supervised ~policy:{ policy with retries = 2 } [ xcrash ] in
  let f = the_failure r in
  Alcotest.(check int) "all attempts consumed" 3 f.f_attempts;
  Alcotest.(check int) "retried twice" 2 r.retried

let test_flaky_succeeds_on_retry () =
  (* attempt 1 raises, attempt 2 succeeds: retry must converge and the
     series must be those of a clean attempt (seed-derived only) *)
  let r = supervised ~policy:{ policy with retries = 1 } [ xflaky () ] in
  Alcotest.(check int) "no failures" 0 (List.length r.failures);
  Alcotest.(check int) "one retry" 1 r.retried;
  Alcotest.(check int) "exit code" 0 (Experiments.Sweep.exit_code r);
  match r.results with
  | [ { replicates = [ { seed; series } ]; _ } ] ->
      Alcotest.(check int) "seed" 42 seed;
      Alcotest.(check bool) "non-empty series" true (series <> [])
  | _ -> Alcotest.fail "expected one result with one replicate"

let test_flaky_fails_without_retry () =
  let r = supervised [ xflaky () ] in
  let f = the_failure r in
  Alcotest.(check string) "cause" "crashed"
    (Experiments.Sweep.cause_label f.f_cause)

let test_stall_aborted () =
  let r = supervised [ xstall ] in
  let f = the_failure r in
  Alcotest.(check string) "cause" "stalled"
    (Experiments.Sweep.cause_label f.f_cause);
  (* the watchdog's abort note is the journal window's last entry *)
  let has_watchdog_note =
    let msg = f.f_journal and sub = "netsim.watchdog" in
    let n = String.length msg and m = String.length sub in
    let rec scan i = i + m <= n && (String.sub msg i m = sub || scan (i + 1)) in
    scan 0
  in
  Alcotest.(check bool) "journal window names the watchdog" true
    has_watchdog_note

let test_event_storm_aborted () =
  let r = supervised ~policy:{ policy with max_events = Some 5_000 } [ xstall ] in
  let f = the_failure r in
  Alcotest.(check string) "cause" "stalled"
    (Experiments.Sweep.cause_label f.f_cause)

let test_sleep_times_out () =
  let r = supervised ~policy:{ policy with task_timeout = Some 0.2 } [ xsleep ] in
  let f = the_failure r in
  Alcotest.(check string) "cause" "timeout"
    (Experiments.Sweep.cause_label f.f_cause)

let test_partial_sweep_keeps_successes () =
  (* one crashing and one stalling task must not cost the healthy
     figures: their rendered series are byte-identical to a clean sweep *)
  let mixed = supervised [ find "fig01"; xcrash; xstall; find "fig04" ] in
  let clean = supervised [ find "fig01"; find "fig04" ] in
  Alcotest.(check int) "two failures" 2 (List.length mixed.failures);
  Alcotest.(check int) "exit code" 3 (Experiments.Sweep.exit_code mixed);
  let render (r : Experiments.Sweep.report) =
    Experiments.Sweep.render ~seeds:1 r.results
  in
  match
    Check.Oracle.first_divergence ~expected:(render clean) ~actual:(render mixed)
  with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "healthy figures diverged: %s" msg

let test_serial_parallel_agree () =
  let p = { policy with retries = 1 } in
  let ids = [ find "fig01"; xcrash; find "fig04"; xstall ] in
  let a = supervised ~policy:p ~jobs:1 ids in
  let b = supervised ~policy:p ~jobs:4 ids in
  let render (r : Experiments.Sweep.report) =
    Experiments.Sweep.render ~seeds:1 r.results
  in
  (match
     Check.Oracle.first_divergence ~expected:(render a) ~actual:(render b)
   with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "-j 1 vs -j 4 diverged: %s" msg);
  Alcotest.(check (list string)) "same failure causes"
    (List.map
       (fun (f : Experiments.Sweep.failure) ->
         Experiments.Sweep.cause_label f.f_cause)
       a.failures)
    (List.map
       (fun (f : Experiments.Sweep.failure) ->
         Experiments.Sweep.cause_label f.f_cause)
       b.failures)

(* The sweep submits cells costliest-first, yet [report.failures] must
   list them in grid order.  The ids borrow the cost table's entries so
   the submission order is the reverse of grid order: fig04 is among the
   cheapest figures, fig12 the costliest. *)
let test_failures_in_grid_order () =
  let failing id =
    probe id "always fails" (fun ~mode:_ ~seed:_ -> raise (Injected id))
  in
  List.iter
    (fun jobs ->
      let r = supervised ~jobs [ failing "fig04"; failing "fig12" ] in
      Alcotest.(check (list string))
        (Printf.sprintf "grid order (-j %d)" jobs)
        [ "fig04"; "fig12" ]
        (List.map
           (fun (f : Experiments.Sweep.failure) -> f.f_experiment)
           r.failures))
    [ 1; 2 ]

(* -------------------------------------------------- report and metrics *)

let test_failure_report_json_shape () =
  let r =
    supervised ~policy:{ policy with retries = 1 } [ find "fig04"; xcrash ]
  in
  match Experiments.Sweep.report_to_json r with
  | Obs.Json.Obj fields ->
      let get k =
        match List.assoc_opt k fields with
        | Some v -> v
        | None -> Alcotest.failf "report JSON lacks %S" k
      in
      (match get "failures" with
      | Obs.Json.Arr [ Obs.Json.Obj f ] ->
          let str k =
            match List.assoc_opt k f with
            | Some (Obs.Json.Str s) -> s
            | _ -> Alcotest.failf "failure JSON lacks string %S" k
          in
          let int k =
            match List.assoc_opt k f with
            | Some (Obs.Json.Int i) -> i
            | _ -> Alcotest.failf "failure JSON lacks int %S" k
          in
          Alcotest.(check string) "task" "xcrash/s42" (str "task");
          Alcotest.(check string) "experiment" "xcrash" (str "experiment");
          Alcotest.(check int) "seed" 42 (int "seed");
          Alcotest.(check int) "attempts" 2 (int "attempts");
          Alcotest.(check string) "cause" "crashed" (str "cause");
          Alcotest.(check bool) "detail non-empty" true (str "detail" <> "");
          ignore (str "journal_window")
      | _ -> Alcotest.fail "expected one failure object");
      (match get "summary" with
      | Obs.Json.Obj s ->
          Alcotest.(check bool) "summary has exit_code" true
            (List.assoc_opt "exit_code" s = Some (Obs.Json.Int 3))
      | _ -> Alcotest.fail "summary should be an object");
      (* the document must survive the serialize/parse round trip *)
      let text = Obs.Json.to_string (Experiments.Sweep.report_to_json r) in
      (match Obs.Json.of_string text with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "report JSON does not parse: %s" e)
  | _ -> Alcotest.fail "report should be a JSON object"

let test_exit_codes () =
  let f cause =
    {
      Experiments.Sweep.f_experiment = "x";
      f_seed = 1;
      f_attempts = 1;
      f_cause = cause;
      f_detail = "";
      f_journal = "";
    }
  in
  let base =
    {
      Experiments.Sweep.results = [];
      failures = [];
      tasks = 1;
      executed = 1;
      resumed = 0;
      retried = 0;
    }
  in
  Alcotest.(check int) "clean" 0 (Experiments.Sweep.exit_code base);
  Alcotest.(check int) "failure" 3
    (Experiments.Sweep.exit_code
       { base with failures = [ f Experiments.Sweep.Crashed ] });
  Alcotest.(check int) "violation wins" 2
    (Experiments.Sweep.exit_code
       {
         base with
         failures =
           [ f Experiments.Sweep.Crashed; f Experiments.Sweep.Violation ];
       })

let test_sweep_observability () =
  let obs = Obs.Sink.create () in
  let r =
    Experiments.Sweep.run
      ~experiments:[ find "fig04"; xcrash ]
      ~policy ~obs ~jobs:1 ~mode:quick ~seed:42 ()
  in
  Alcotest.(check int) "one failure" 1 (List.length r.failures);
  Alcotest.(check int) "one sweep journal entry" 1
    (Obs.Journal.count obs.Obs.Sink.journal ~component:"sweep" ());
  let samples = Obs.Metrics.snapshot obs.Obs.Sink.metrics in
  let value name =
    List.fold_left
      (fun acc (s : Obs.Metrics.sample) ->
        if s.name = name then
          match s.value with Obs.Metrics.Counter_v n -> acc + n | _ -> acc
        else acc)
      0 samples
  in
  Alcotest.(check int) "tasks total" 2 (value "sweep_tasks_total");
  Alcotest.(check int) "ok total" 1 (value "sweep_task_ok_total");
  Alcotest.(check int) "failed total" 1 (value "sweep_task_failed_total")

let () =
  Alcotest.run "supervise"
    [
      ( "control",
        [
          Alcotest.test_case "deadline + arm" `Quick test_control_timeout;
          Alcotest.test_case "cancel + inert none" `Quick test_control_cancel;
        ] );
      ( "outcomes",
        [
          Alcotest.test_case "classification + order" `Quick
            test_map_outcomes_classifies;
          Alcotest.test_case "pool-level timeout" `Quick test_map_outcomes_timeout;
          Alcotest.test_case "nested submit names task" `Quick
            test_nested_submit_names_task;
        ] );
      ( "faults",
        [
          Alcotest.test_case "crash -> structured failure" `Quick
            test_crash_failure;
          Alcotest.test_case "crash exhausts retries" `Quick
            test_crash_retries_exhausted;
          Alcotest.test_case "flaky succeeds on attempt 2" `Quick
            test_flaky_succeeds_on_retry;
          Alcotest.test_case "flaky fails without retries" `Quick
            test_flaky_fails_without_retry;
          Alcotest.test_case "livelock stalled" `Quick test_stall_aborted;
          Alcotest.test_case "event storm stalled" `Quick
            test_event_storm_aborted;
          Alcotest.test_case "wall-clock timeout" `Quick test_sleep_times_out;
          Alcotest.test_case "partial sweep keeps successes" `Quick
            test_partial_sweep_keeps_successes;
          Alcotest.test_case "serial = parallel" `Quick
            test_serial_parallel_agree;
          Alcotest.test_case "failures come back in grid order" `Quick
            test_failures_in_grid_order;
        ] );
      ( "report",
        [
          Alcotest.test_case "failure JSON shape" `Quick
            test_failure_report_json_shape;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "counters + journal" `Quick
            test_sweep_observability;
        ] );
    ]
