(* Tests for the experiments library: series utilities, the registry, and
   smoke runs of the cheap (analytic / Monte-Carlo) harnesses. *)

(* ---------------------------------------------------------------- Series *)

let test_series_validates_width () =
  Alcotest.(check bool) "mismatched row rejected" true
    (try
       ignore
         (Experiments.Series.make ~title:"t" ~xlabel:"x" ~ylabels:[ "a"; "b" ]
            [ (0., [ 1. ]) ]);
       false
     with Invalid_argument _ -> true)

let test_series_csv () =
  let s =
    Experiments.Series.make ~title:"t" ~xlabel:"x" ~ylabels:[ "a"; "b" ]
      [ (0., [ 1.; 2. ]); (1., [ 3.; 4.5 ]) ]
  in
  let csv = Experiments.Series.to_csv s in
  Alcotest.(check string) "csv" "x,a,b\n0,1,2\n1,3,4.5\n" csv

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop i = i + nn <= nh && (String.sub haystack i nn = needle || loop (i + 1)) in
  nn = 0 || loop 0

let test_series_pp_renders () =
  let s =
    Experiments.Series.make ~title:"render me" ~xlabel:"x" ~ylabels:[ "y" ]
      ~notes:[ "a note" ]
      [ (0.5, [ 1.25 ]) ]
  in
  let out = Format.asprintf "%a" Experiments.Series.pp s in
  Alcotest.(check bool) "title present" true (contains out "render me");
  Alcotest.(check bool) "note present" true (contains out "a note")

let test_series_render_ascii () =
  let s =
    Experiments.Series.make ~title:"t" ~xlabel:"x" ~ylabels:[ "y" ]
      (List.init 20 (fun i -> (float_of_int i, [ float_of_int (i * i) ])))
  in
  let out = Experiments.Series.render_ascii s ~col:0 in
  Alcotest.(check bool) "has points" true (String.contains out '*');
  Alcotest.(check bool) "has axis" true (String.contains out '+');
  Alcotest.(check bool) "mentions label" true (contains out "y vs x")

(* -------------------------------------------------------------- Registry *)

let test_registry_ids_unique () =
  let ids = List.map (fun (e : Experiments.Registry.experiment) -> e.id) Experiments.Registry.all in
  let sorted = List.sort_uniq compare ids in
  Alcotest.(check int) "no duplicate ids" (List.length ids) (List.length sorted)

let test_registry_covers_all_figures () =
  (* Every evaluation figure of the paper: 1-7, 9-21. *)
  let wanted =
    [ 1; 2; 3; 4; 5; 6; 7; 9; 10; 11; 12; 13; 14; 15; 16; 17; 18; 19; 20; 21 ]
  in
  List.iter
    (fun n ->
      let id = Printf.sprintf "fig%02d" n in
      match Experiments.Registry.find id with
      | Some _ -> ()
      | None -> Alcotest.failf "missing experiment %s" id)
    wanted

let test_registry_find_case_insensitive () =
  Alcotest.(check bool) "upper-case id found" true
    (Experiments.Registry.find "FIG09" <> None);
  Alcotest.(check bool) "unknown id" true (Experiments.Registry.find "fig99" = None)

(* -------------------------------------------------- smoke: cheap figures *)

let smoke id =
  match Experiments.Registry.find id with
  | None -> Alcotest.failf "experiment %s missing" id
  | Some e ->
      let series = e.Experiments.Registry.run ~mode:Experiments.Scenario.Quick ~seed:3 in
      Alcotest.(check bool) (id ^ " produced series") true (series <> []);
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (id ^ " rows non-empty")
            true
            (s.Experiments.Series.rows <> []);
          List.iter
            (fun (x, ys) ->
              if Float.is_nan x then Alcotest.failf "%s: NaN x" id;
              ignore ys)
            s.Experiments.Series.rows)
        series

let test_smoke_fig01 () = smoke "fig01"

let test_smoke_fig04 () = smoke "fig04"

let test_smoke_fig07 () = smoke "fig07"

let test_smoke_fig17 () = smoke "fig17"

(* What a run allocates must not depend on what ran before it in the
   process.  Each run below drops its engine with about 570 events
   pending, most of them packets queued or propagating toward the 64
   lossless receivers.  Each engine owns the free list its packets
   recycle through, so those records go to the GC with it.  When one
   fixed 4096-record arena per domain served every engine they never
   came back, and the next runs fell back to heap records: there runs 2
   and 3 read 2.489 and 2.530 million minor words.  The first run is
   counted too: no state outlives an engine, so the first engine in the
   process allocates like the later ones. *)
let test_repeated_runs_allocate_the_same () =
  let n = 64 in
  let run () =
    let w0 = Gc.minor_words () in
    let st =
      Experiments.Scenario.star ~seed:3 ~obs:Obs.Sink.null ~link_bps:10e6
        ~link_delays:(Array.make n 0.0225) ()
    in
    Tfmcc_core.Session.start st.Experiments.Scenario.s_session ~at:0.;
    Experiments.Scenario.run_until st.Experiments.Scenario.s_sc 20.;
    Gc.minor_words () -. w0
  in
  let first = run () in
  for i = 2 to 4 do
    Alcotest.(check (float 0.))
      (Printf.sprintf "run %d minor words = run 1's" i)
      first (run ())
  done

(* ---------------------------------------------------- scenario builders *)

let test_dumbbell_structure () =
  let d =
    Experiments.Scenario.dumbbell ~seed:1 ~bottleneck_bps:1e6 ~delay_s:0.01
      ~n_tfmcc_rx:3 ~n_tcp:2 ()
  in
  Alcotest.(check int) "tcp pairs" 2 (List.length d.Experiments.Scenario.tcp);
  Alcotest.(check int) "receivers" 3
    (List.length (Tfmcc_core.Session.receivers d.Experiments.Scenario.session));
  Alcotest.(check (float 1e-9)) "bottleneck rate" 1e6
    (Netsim.Link.bandwidth_bps d.Experiments.Scenario.bottleneck)

let test_star_structure () =
  let st =
    Experiments.Scenario.star ~seed:1 ~link_bps:1e6
      ~link_delays:[| 0.01; 0.02 |]
      ~link_losses:[| 0.; 0.5 |]
      ~with_tcp:true ()
  in
  Alcotest.(check int) "rx nodes" 2 (Array.length st.Experiments.Scenario.s_rx_nodes);
  Alcotest.(check int) "tcp per rx" 2 (Array.length st.Experiments.Scenario.s_tcp);
  let fwd, _ = st.Experiments.Scenario.s_rx_links.(1) in
  (* The lossy link actually drops packets. *)
  Alcotest.(check (float 1e-9)) "delay set" 0.02 (Netsim.Link.delay_s fwd)

let test_star_rejects_bad_losses () =
  Alcotest.(check bool) "length mismatch rejected" true
    (try
       ignore
         (Experiments.Scenario.star ~link_bps:1e6 ~link_delays:[| 0.01 |]
            ~link_losses:[| 0.1; 0.2 |] ());
       false
     with Invalid_argument _ -> true)

let test_scale_helper () =
  Alcotest.(check int) "quick" 1
    (Experiments.Scenario.scale Experiments.Scenario.Quick ~quick:1 ~full:2);
  Alcotest.(check int) "full" 2
    (Experiments.Scenario.scale Experiments.Scenario.Full ~quick:1 ~full:2)

let () =
  Alcotest.run "experiments"
    [
      ( "series",
        [
          Alcotest.test_case "validates width" `Quick test_series_validates_width;
          Alcotest.test_case "csv" `Quick test_series_csv;
          Alcotest.test_case "pp renders" `Quick test_series_pp_renders;
          Alcotest.test_case "render ascii" `Quick test_series_render_ascii;
        ] );
      ( "registry",
        [
          Alcotest.test_case "unique ids" `Quick test_registry_ids_unique;
          Alcotest.test_case "covers all figures" `Quick test_registry_covers_all_figures;
          Alcotest.test_case "find" `Quick test_registry_find_case_insensitive;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "fig01" `Quick test_smoke_fig01;
          Alcotest.test_case "fig04" `Quick test_smoke_fig04;
          Alcotest.test_case "fig07" `Quick test_smoke_fig07;
          Alcotest.test_case "fig17" `Quick test_smoke_fig17;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "dumbbell structure" `Quick test_dumbbell_structure;
          Alcotest.test_case "star structure" `Quick test_star_structure;
          Alcotest.test_case "star rejects bad losses" `Quick test_star_rejects_bad_losses;
          Alcotest.test_case "scale helper" `Quick test_scale_helper;
          Alcotest.test_case "repeated runs allocate the same" `Quick
            test_repeated_runs_allocate_the_same;
        ] );
    ]
