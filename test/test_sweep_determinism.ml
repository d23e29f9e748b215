(* Determinism of the parallel sweep: for a fixed seed the fan-out over
   domains must be invisible in the output.  Serial (jobs=1) and parallel
   (jobs=4) full-registry sweeps, repeated parallel runs, and multi-seed
   aggregates must all produce byte-identical CSV for every series.  The
   full registry's parallel pass runs under the strict invariant checker
   (DESIGN.md §11): a violation is a failed cell, and the checker must
   not move the output. *)

let csv_of_result (r : Experiments.Sweep.result) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun (rep : Experiments.Sweep.replicate) ->
      Buffer.add_string buf (Printf.sprintf "== seed %d ==\n" rep.seed);
      List.iter
        (fun s -> Buffer.add_string buf (Experiments.Series.to_csv s))
        rep.series)
    r.replicates;
  (match r.aggregate with
  | None -> ()
  | Some series ->
      Buffer.add_string buf "== aggregate ==\n";
      List.iter
        (fun s -> Buffer.add_string buf (Experiments.Series.to_csv s))
        series);
  Buffer.contents buf

let run ?experiments ?strict ~jobs ?seeds () =
  let report =
    Experiments.Sweep.run ?experiments ?strict ~jobs ~mode:Experiments.Scenario.Quick
      ~seed:42 ?seeds ()
  in
  (* A strict violation's journal window, or any other failure's cause. *)
  prerr_string (Experiments.Sweep.render_failures report);
  Alcotest.(check int)
    (Printf.sprintf "no failures (-j %d)" jobs)
    0
    (List.length report.Experiments.Sweep.failures);
  report.Experiments.Sweep.results

(* A cheap subset for the repeated-run checks: the full registry takes
   tens of seconds per pass, so reserve it for the single serial-vs-
   parallel comparison below. *)
let cheap_subset () =
  List.filter
    (fun e ->
      List.mem e.Experiments.Registry.id [ "fig01"; "fig04"; "rob03" ])
    Experiments.Registry.all

let check_same_results msg (a : Experiments.Sweep.result list)
    (b : Experiments.Sweep.result list) =
  Alcotest.(check int)
    (msg ^ ": experiment count")
    (List.length a) (List.length b);
  List.iter2
    (fun ra rb ->
      Alcotest.(check string)
        (msg ^ ": order " ^ ra.Experiments.Sweep.experiment.Experiments.Registry.id)
        ra.Experiments.Sweep.experiment.Experiments.Registry.id
        rb.Experiments.Sweep.experiment.Experiments.Registry.id;
      Alcotest.(check string)
        (msg ^ ": " ^ ra.Experiments.Sweep.experiment.Experiments.Registry.id)
        (csv_of_result ra) (csv_of_result rb))
    a b

let test_full_registry_serial_vs_parallel () =
  let serial = run ~jobs:1 () in
  let parallel = run ~strict:true ~jobs:4 () in
  check_same_results "serial vs strict -j 4" serial parallel

let test_repeated_parallel_runs () =
  let experiments = cheap_subset () in
  let first = run ~experiments ~jobs:3 () in
  let second = run ~experiments ~jobs:3 () in
  let third = run ~experiments ~jobs:2 () in
  check_same_results "-j 3 run 1 vs run 2" first second;
  check_same_results "-j 3 vs -j 2" first third

let test_multi_seed_aggregate () =
  let experiments = cheap_subset () in
  let serial = run ~experiments ~jobs:1 ~seeds:2 () in
  let parallel = run ~experiments ~jobs:4 ~seeds:2 () in
  List.iter
    (fun (r : Experiments.Sweep.result) ->
      Alcotest.(check int)
        ("two replicates: " ^ r.experiment.Experiments.Registry.id)
        2
        (List.length r.replicates);
      Alcotest.(check bool)
        ("aggregate present: " ^ r.experiment.Experiments.Registry.id)
        true (r.aggregate <> None))
    serial;
  check_same_results "seeds=2 serial vs -j 4" serial parallel

(* On 4 domains the cells finish in a different order from the serial
   run; the rendered sweep — the exact bytes `tfmcc-sim sweep` prints —
   must not differ.  The subset mixes costly and cheap figures so that a
   cheap cell submitted after a costly one finishes first. *)
let sched_subset () =
  List.filter
    (fun e ->
      List.mem e.Experiments.Registry.id
        [ "fig01"; "fig17"; "rob03"; "chk02"; "abl05" ])
    Experiments.Registry.all

let test_schedules_byte_identical () =
  let experiments = sched_subset () in
  let render jobs =
    Experiments.Sweep.render ~csv:true ~replicates:true ~seeds:2
      (run ~experiments ~jobs ~seeds:2 ())
  in
  let reference = render 1 in
  Alcotest.(check bool) "reference output non-empty" true (reference <> "");
  Alcotest.(check string) "-j 4 vs -j 1" reference (render 4)

(* The reference runs each cell directly, in grid order, without the
   sweep's watchdog: the supervised sweep must not move a series. *)
let test_schedules_cell_runs_identical () =
  let experiments = sched_subset () in
  let reference =
    List.map
      (fun experiment ->
        let _, series =
          Experiments.Sweep.run_cell experiment
            ~mode:Experiments.Scenario.Quick ~seed:42
        in
        {
          Experiments.Sweep.experiment;
          replicates = [ { seed = 42; series } ];
          aggregate = None;
        })
      experiments
  in
  List.iter
    (fun jobs ->
      check_same_results
        (Printf.sprintf "-j %d vs grid-order cell runs" jobs)
        reference (run ~experiments ~jobs ()))
    [ 1; 4 ]

let () =
  Alcotest.run "sweep determinism"
    [
      ( "determinism",
        [
          Alcotest.test_case "full registry: serial vs parallel" `Slow
            test_full_registry_serial_vs_parallel;
          Alcotest.test_case "repeated parallel runs" `Quick
            test_repeated_parallel_runs;
          Alcotest.test_case "multi-seed aggregate" `Quick
            test_multi_seed_aggregate;
          Alcotest.test_case "schedules render byte-identically" `Quick
            test_schedules_byte_identical;
          Alcotest.test_case "schedules: cell-by-cell runs identical" `Quick
            test_schedules_cell_runs_identical;
        ] );
    ]
