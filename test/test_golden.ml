(* Golden-trace regression plumbing: digest determinism, serial/parallel
   identity, file-format round-trips, and agreement with the checked-in
   test/golden/digests.txt. *)

let find_exn id =
  match Experiments.Registry.find id with
  | Some e -> e
  | None -> Alcotest.fail (Printf.sprintf "experiment %s not registered" id)

(* Cheap figures only: fig01 is an analytic CDF, fig04 the feedback-timer
   formula — both fast enough for the serial/parallel check. *)
let cheap = [ "fig01"; "fig04" ]

let test_digest_deterministic () =
  let e = find_exn "fig01" in
  let d1 =
    Experiments.Golden.digest_experiment e ~mode:Experiments.Scenario.Quick
      ~seed:42
  and d2 =
    Experiments.Golden.digest_experiment e ~mode:Experiments.Scenario.Quick
      ~seed:42
  in
  Alcotest.(check string) "same cell, same digest" d1 d2;
  Alcotest.(check int) "16 hex chars" 16 (String.length d1)

let test_serial_parallel_identical () =
  let experiments = List.map find_exn cheap in
  let serial =
    Experiments.Golden.compute ~experiments ~jobs:1
      ~mode:Experiments.Scenario.Quick ~seed:42 ()
  and parallel =
    Experiments.Golden.compute ~experiments ~jobs:2
      ~mode:Experiments.Scenario.Quick ~seed:42 ()
  in
  Alcotest.(check (list (pair string string)))
    "jobs:1 = jobs:2" serial parallel

let test_file_format_roundtrip () =
  let pairs = [ ("fig01", "0123456789abcdef"); ("fig02", "fedcba9876543210") ] in
  let text = Experiments.Golden.to_file_format pairs in
  Alcotest.(check (list (pair string string)))
    "roundtrip" pairs
    (Experiments.Golden.parse_file_format text);
  Alcotest.(check (list (pair string string)))
    "comments and blanks ignored" pairs
    (Experiments.Golden.parse_file_format ("# header\n\n" ^ text ^ "\n# foot\n"))

let test_diff_classification () =
  let expected = [ ("a", "1"); ("b", "2"); ("c", "3") ] in
  let actual = [ ("a", "1"); ("b", "9"); ("d", "4") ] in
  let d = Experiments.Golden.diff ~expected ~actual in
  let find id = List.assoc_opt id d in
  Alcotest.(check bool) "match is silent" true (find "a" = None);
  Alcotest.(check bool) "mismatch detected" true
    (find "b" = Some (`Mismatch ("2", "9")));
  Alcotest.(check bool) "missing detected" true (find "c" = Some `Missing);
  Alcotest.(check bool) "extra detected" true (find "d" = Some `Extra);
  Alcotest.(check int) "nothing else" 3 (List.length d)

(* Every digest of the checked-in file, from one quick sweep of the
   whole registry on two domains: tier-1 notices any output drift, as
   [tfmcc-sim verify-golden] does.  The sink JSON of the experiments
   that build engines counts engine events, so a digest run that gained
   a watchdog or any other event source fails here too. *)
let test_matches_checked_in_goldens () =
  let path =
    (* cwd is test/ under [dune runtest], the project root under
       [dune exec]. *)
    if Sys.file_exists "golden/digests.txt" then "golden/digests.txt"
    else "test/golden/digests.txt"
  in
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  let expected = Experiments.Golden.parse_file_format text in
  let actual =
    Experiments.Golden.compute ~jobs:2 ~mode:Experiments.Scenario.Quick ~seed:42 ()
  in
  Alcotest.(check int) "all 43 recorded" 43 (List.length expected);
  match Experiments.Golden.diff ~expected ~actual with
  | [] -> ()
  | diffs ->
      Alcotest.failf "%d digest(s) moved: %s" (List.length diffs)
        (String.concat ", "
           (List.map
              (fun (id, d) ->
                match d with
                | `Missing -> id ^ " missing from the run"
                | `Extra -> id ^ " not recorded"
                | `Mismatch (e, a) -> Printf.sprintf "%s %s -> %s" id e a)
              diffs))

let () =
  Alcotest.run "golden"
    [
      ( "digests",
        [
          Alcotest.test_case "deterministic" `Quick test_digest_deterministic;
          Alcotest.test_case "serial = parallel" `Quick
            test_serial_parallel_identical;
          Alcotest.test_case "file format roundtrip" `Quick
            test_file_format_roundtrip;
          Alcotest.test_case "diff classification" `Quick
            test_diff_classification;
          Alcotest.test_case "matches checked-in goldens" `Quick
            test_matches_checked_in_goldens;
        ] );
    ]
