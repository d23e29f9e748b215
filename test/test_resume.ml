(* Checkpoint/resume (DESIGN.md §12): a sweep that checkpointed only
   part of its grid (as a sweep killed mid-run leaves it) and is resumed
   from that directory must render byte-identically to an uninterrupted
   run, with only the missing tasks re-executed.  Also covers checkpoint integrity:
   corrupted or misnamed files degrade to "missing". *)

let quick = Experiments.Scenario.Quick

let find id =
  match Experiments.Registry.find id with
  | Some e -> e
  | None -> Alcotest.failf "registry should resolve %s" id

let experiments = List.map find [ "fig01"; "fig04" ]

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "tfmcc_resume_%d_%d" (Unix.getpid ()) !n)
    in
    (* stale leftovers from a killed earlier run would defeat the test *)
    if Sys.file_exists dir then
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
    dir

let sweep ?(experiments = experiments)
    ?(policy = Experiments.Sweep.default_policy) () =
  Experiments.Sweep.run ~experiments ~policy ~jobs:1 ~mode:quick ~seed:42
    ~seeds:2 ()

let render (r : Experiments.Sweep.report) =
  Experiments.Sweep.render ~seeds:2 r.Experiments.Sweep.results

let check_identical ~what expected actual =
  match Check.Oracle.first_divergence ~expected ~actual with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s diverged: %s" what msg

(* --------------------------------------------------------- round trip *)

let test_interrupt_and_resume () =
  let uninterrupted = render (sweep ()) in
  let dir = fresh_dir () in
  let base = Experiments.Sweep.default_policy in
  (* the "interrupted" sweep got as far as fig01's two cells *)
  let partial =
    sweep ~experiments:[ find "fig01" ]
      ~policy:{ base with checkpoint = Some dir }
      ()
  in
  Alcotest.(check int) "partial executed" 2 partial.executed;
  Alcotest.(check int) "partial exit code" 0
    (Experiments.Sweep.exit_code partial);
  (* resume: only the missing tasks run, output converges byte-exactly *)
  let resumed =
    sweep ~policy:{ base with checkpoint = Some dir; resume = true } ()
  in
  Alcotest.(check int) "resumed from disk" 2 resumed.resumed;
  Alcotest.(check int) "re-executed" 2 resumed.executed;
  Alcotest.(check int) "resume exit code" 0
    (Experiments.Sweep.exit_code resumed);
  check_identical ~what:"resumed vs uninterrupted" uninterrupted
    (render resumed);
  (* a second resume runs nothing at all and still matches *)
  let settled =
    sweep ~policy:{ base with checkpoint = Some dir; resume = true } ()
  in
  Alcotest.(check int) "everything from disk" 4 settled.resumed;
  Alcotest.(check int) "nothing re-executed" 0 settled.executed;
  check_identical ~what:"settled vs uninterrupted" uninterrupted
    (render settled)

let test_corrupted_checkpoint_reruns () =
  let uninterrupted = render (sweep ()) in
  let dir = fresh_dir () in
  let base = Experiments.Sweep.default_policy in
  ignore (sweep ~policy:{ base with checkpoint = Some dir } ());
  (* truncate one checkpoint and scribble over another: both must
     degrade to "missing" and re-run, not crash or corrupt the output *)
  let f1 = Experiments.Checkpoint.task_file ~dir ~experiment:"fig01" ~seed:42 in
  let oc = open_out_bin f1 in
  close_out oc;
  let f2 = Experiments.Checkpoint.task_file ~dir ~experiment:"fig04" ~seed:43 in
  let oc = open_out_bin f2 in
  output_string oc "not a checkpoint";
  close_out oc;
  let resumed =
    sweep ~policy:{ base with checkpoint = Some dir; resume = true } ()
  in
  Alcotest.(check int) "intact tasks resumed" 2 resumed.resumed;
  Alcotest.(check int) "corrupted tasks re-run" 2 resumed.executed;
  check_identical ~what:"resume after corruption" uninterrupted
    (render resumed)

(* ------------------------------------------------------- module level *)

let test_checkpoint_roundtrip () =
  let dir = fresh_dir () in
  let series =
    [
      Experiments.Series.make ~title:"t" ~xlabel:"x" ~ylabels:[ "y" ]
        ~notes:[ "n" ]
        [ (0., [ 1.5 ]); (1., [ Float.nan ]) ];
    ]
  in
  Experiments.Checkpoint.save ~dir
    (Experiments.Checkpoint.make ~experiment:"fig99" ~seed:7 series);
  (match Experiments.Checkpoint.load ~dir ~experiment:"fig99" ~seed:7 with
  | None -> Alcotest.fail "round trip should load"
  | Some e ->
      Alcotest.(check string) "experiment" "fig99" e.c_experiment;
      Alcotest.(check int) "seed" 7 e.c_seed;
      Alcotest.(check string) "series survive byte-exactly"
        (Experiments.Series.to_csv (List.hd series))
        (Experiments.Series.to_csv (List.hd e.c_series)));
  (* identity is part of the integrity check *)
  Alcotest.(check bool) "wrong seed is a miss" true
    (Experiments.Checkpoint.load ~dir ~experiment:"fig99" ~seed:8 = None);
  Alcotest.(check bool) "wrong experiment is a miss" true
    (Experiments.Checkpoint.load ~dir ~experiment:"fig98" ~seed:7 = None)

let () =
  Alcotest.run "resume"
    [
      ( "resume",
        [
          Alcotest.test_case "interrupt + resume byte-identical" `Quick
            test_interrupt_and_resume;
          Alcotest.test_case "corrupted checkpoints re-run" `Quick
            test_corrupted_checkpoint_reruns;
          Alcotest.test_case "checkpoint round trip" `Quick
            test_checkpoint_roundtrip;
        ] );
    ]
