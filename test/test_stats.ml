(* Unit and property tests for the Stats library. *)

let check_float = Alcotest.(check (float 1e-9))

let check_close eps name expected actual = Alcotest.(check (float eps)) name expected actual

(* ------------------------------------------------------------------ Rng *)

let test_rng_determinism () =
  let a = Stats.Rng.create 7 and b = Stats.Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Stats.Rng.bits64 a) (Stats.Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Stats.Rng.create 1 and b = Stats.Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true
    (Stats.Rng.bits64 a <> Stats.Rng.bits64 b)

let test_rng_split_independence () =
  let parent = Stats.Rng.create 3 in
  let child = Stats.Rng.split parent in
  let c1 = Stats.Rng.bits64 child in
  let p1 = Stats.Rng.bits64 parent in
  Alcotest.(check bool) "child differs from parent" true (c1 <> p1)

(* The splitmix64 stream itself, not just agreement between generators:
   these are the outputs of [create 42], of a [split] child and of two
   same-seed generators after three draws, so a change to the state's storage
   cannot alter every stream the same way unnoticed. *)
let bits8 g = List.init 8 (fun _ -> Stats.Rng.bits64 g)

let test_rng_pinned_stream () =
  Alcotest.(check (list int64)) "create 42"
    [ 0x989b3f130a063869L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L;
      0xc4b6b24ef01890eL; 0xfb16a06e52ec10a7L; 0x3c30fc5fd50692c3L;
      0x4782c4b4c4fdf7c9L; 0x272404a0a3926552L ]
    (bits8 (Stats.Rng.create 42));
  let g = Stats.Rng.create 42 in
  let child = Stats.Rng.split g in
  Alcotest.(check (list int64)) "split child"
    [ 0x33d3b3229fe0c44dL; 0xcc0aaf5e8d84aac2L; 0xa539e214256b51ecL;
      0xa57c77288d9504f0L; 0x6a1a5b4564f0f705L; 0x9be523348b643085L;
      0xd77a5e377fecdf84L; 0x3cf0ccbc39ddd1f9L ]
    (bits8 child);
  Alcotest.(check (list int64)) "split advanced the parent by one"
    [ 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L; 0xc4b6b24ef01890eL;
      0xfb16a06e52ec10a7L; 0x3c30fc5fd50692c3L; 0x4782c4b4c4fdf7c9L;
      0x272404a0a3926552L; 0xc2bc249e28760ccdL ]
    (bits8 g);
  let g = Stats.Rng.create 42 and twin = Stats.Rng.create 42 in
  for _ = 1 to 3 do
    ignore (Stats.Rng.bits64 g);
    ignore (Stats.Rng.bits64 twin)
  done;
  let expected =
    [ 0xc4b6b24ef01890eL; 0xfb16a06e52ec10a7L; 0x3c30fc5fd50692c3L;
      0x4782c4b4c4fdf7c9L; 0x272404a0a3926552L; 0xc2bc249e28760ccdL;
      0x3e69c285108dbb77L; 0xc3b2b51fc61ec914L ]
  in
  Alcotest.(check (list int64)) "after three draws" expected (bits8 g);
  Alcotest.(check (list int64)) "same-seed twin" expected (bits8 twin)

(* A draw boxes its float result and nothing else: the generator state
   is stored unboxed. *)
let test_rng_uniform_alloc () =
  let rng = Stats.Rng.create 3 in
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (Stats.Rng.uniform rng))
  done;
  let per_draw = (Gc.minor_words () -. before) /. float_of_int n in
  if per_draw > 2.0 then
    Alcotest.failf "uniform allocates %.2f words per draw (max 2)" per_draw

let test_rng_uniform_range () =
  let rng = Stats.Rng.create 5 in
  for _ = 1 to 10_000 do
    let u = Stats.Rng.uniform rng in
    if u < 0. || u >= 1. then Alcotest.failf "uniform out of range: %f" u
  done

let test_rng_uniform_mean () =
  let rng = Stats.Rng.create 17 in
  let n = 100_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Stats.Rng.uniform rng
  done;
  check_close 0.01 "mean ~ 0.5" 0.5 (!acc /. float_of_int n)

let test_rng_int_bounds () =
  let rng = Stats.Rng.create 23 in
  for _ = 1 to 10_000 do
    let v = Stats.Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "int out of range: %d" v
  done

let test_rng_exponential_mean () =
  let rng = Stats.Rng.create 29 in
  let n = 100_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Stats.Rng.exponential rng ~mean:2.5
  done;
  check_close 0.1 "exponential mean" 2.5 (!acc /. float_of_int n)

let test_rng_shuffle_permutation () =
  let rng = Stats.Rng.create 31 in
  let a = Array.init 50 Fun.id in
  Stats.Rng.shuffle_in_place rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

(* ----------------------------------------------------------------- Dist *)

let test_bernoulli_rate () =
  let rng = Stats.Rng.create 113 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Stats.Rng.bernoulli rng 0.3 then incr hits
  done;
  check_close 0.01 "bernoulli rate" 0.3 (float_of_int !hits /. float_of_int n)

(* ---------------------------------------------------------- Descriptive *)

let test_mean_var () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "mean" 3. (Stats.Descriptive.mean xs);
  (* The unbiased sample variance of 1..5 is 2.5. *)
  check_close 1e-9 "stddev" (sqrt 2.5) (Stats.Descriptive.stddev xs)

let test_mean_empty () = check_float "mean of empty" 0. (Stats.Descriptive.mean [||])

let test_percentiles () =
  let xs = [| 5.; 1.; 3.; 2.; 4. |] in
  check_float "median" 3. (Stats.Descriptive.median xs);
  let s = Stats.Descriptive.summarize xs in
  check_float "p0" 1. s.Stats.Descriptive.min;
  check_float "p100" 5. s.Stats.Descriptive.max;
  check_float "p25" 2. s.Stats.Descriptive.p25;
  check_float "p75" 4. s.Stats.Descriptive.p75

let test_percentile_interpolation () =
  let xs = [| 0.; 10. |] in
  check_float "p50 interpolates" 5. (Stats.Descriptive.median xs)

let test_summarize () =
  let s = Stats.Descriptive.summarize [| 2.; 4.; 6.; 8. |] in
  Alcotest.(check int) "n" 4 s.Stats.Descriptive.n;
  check_float "mean" 5. s.Stats.Descriptive.mean;
  check_float "min" 2. s.Stats.Descriptive.min;
  check_float "max" 8. s.Stats.Descriptive.max

let test_cov () =
  check_float "cov of constant" 0.
    (Stats.Descriptive.coefficient_of_variation [| 3.; 3.; 3. |])

let test_jain_index () =
  check_float "equal shares are fair" 1. (Stats.Descriptive.jain_index [| 2.; 2.; 2. |]);
  check_close 1e-9 "one hog" (1. /. 4.)
    (Stats.Descriptive.jain_index [| 1.; 0.; 0.; 0. |]);
  (* sum = 5, sum of squares = 7: index = 25 / (4*7) *)
  check_close 1e-9 "known mixed case" (25. /. 28.)
    (Stats.Descriptive.jain_index [| 1.; 1.; 1.; 2. |])

(* ----------------------------------------------------------- Timeseries *)

let test_counter_binning () =
  let c = Stats.Timeseries.Counter.create () in
  List.iter
    (fun (time, bytes) ->
      Stats.Timeseries.Counter.record c ~clock:{ Event_heap.cell_time = time } ~bytes)
    [ (0.5, 10); (1.5, 20); (1.7, 5) ];
  let bins = Stats.Timeseries.Counter.rate_series_bps c ~bin:1.0 ~t_end:3.0 in
  Alcotest.(check int) "3 bins" 3 (Array.length bins);
  check_float "bin0" 80. (snd bins.(0));
  check_float "bin1" 200. (snd bins.(1));
  check_float "bin2" 0. (snd bins.(2))

let test_counter_rate () =
  let c = Stats.Timeseries.Counter.create () in
  Stats.Timeseries.Counter.record c ~clock:{ Event_heap.cell_time = 0.6 } ~bytes:10;
  (* 10 bytes in the half-second bin [0.5, 1): 160 bits/s. *)
  let r = Stats.Timeseries.Counter.rate_series_bps c ~bin:0.5 ~t_end:1.0 in
  check_float "rate = bits / width" 160. (snd r.(1))

let test_counter_monotonic_guard () =
  let c = Stats.Timeseries.Counter.create () in
  Stats.Timeseries.Counter.record c ~clock:{ Event_heap.cell_time = 1.0 } ~bytes:1;
  Alcotest.check_raises "rejects going backwards"
    (Invalid_argument "Timeseries.Counter.record: time must be non-decreasing")
    (fun () ->
      Stats.Timeseries.Counter.record c ~clock:{ Event_heap.cell_time = 0.5 } ~bytes:1)

let test_counter_throughput () =
  let c = Stats.Timeseries.Counter.create () in
  let clock = { Event_heap.cell_time = 1.0 } in
  Stats.Timeseries.Counter.record c ~clock ~bytes:1000;
  clock.cell_time <- 2.0;
  Stats.Timeseries.Counter.record c ~clock ~bytes:1000;
  (* 2000 bytes in [0,4) -> 4000 bits/s *)
  check_float "bps" 4000.
    (Stats.Timeseries.Counter.throughput_bps c ~t_start:0. ~t_end:4.)

(* ------------------------------------------------------------------ Cdf *)

let test_cdf_eval () =
  let c = Stats.Cdf.of_samples [| 1.; 2.; 3.; 4. |] in
  check_float "below" 0. (Stats.Cdf.eval c 0.5);
  check_float "mid" 0.5 (Stats.Cdf.eval c 2.);
  check_float "mid2" 0.5 (Stats.Cdf.eval c 2.5);
  check_float "top" 1. (Stats.Cdf.eval c 4.)

(* The q-quantile is the smallest sample x with [eval x >= q]. *)
let test_cdf_quantile () =
  let c = Stats.Cdf.of_samples [| 10.; 20.; 30.; 40.; 50. |] in
  check_float "q 0.2 at 10" 0.2 (Stats.Cdf.eval c 10.);
  check_float "below q 0.2" 0. (Stats.Cdf.eval c 9.99);
  check_float "q 1.0 at 50" 1.0 (Stats.Cdf.eval c 50.);
  check_float "below q 1.0" 0.8 (Stats.Cdf.eval c 49.99)

let test_cdf_points_monotone () =
  let rng = Stats.Rng.create 211 in
  let samples = Array.init 500 (fun _ -> Stats.Rng.uniform rng) in
  let c = Stats.Cdf.of_samples samples in
  let ys = Array.init 50 (fun i -> Stats.Cdf.eval c (float_of_int i /. 49.)) in
  Array.iteri
    (fun i y -> if i > 0 && y < ys.(i - 1) then Alcotest.fail "CDF not monotone")
    ys

(* ------------------------------------------------------------ more stats *)

let test_counter_window () =
  let c = Stats.Timeseries.Counter.create () in
  List.iter
    (fun (time, bytes) ->
      Stats.Timeseries.Counter.record c ~clock:{ Event_heap.cell_time = time } ~bytes)
    [ (0.5, 1); (1.5, 2); (2.5, 3); (3.5, 4) ];
  (* Only the bytes at 1.5 and 2.5 fall in [1, 3): 5 bytes over 2 s. *)
  check_float "window throughput" 20.
    (Stats.Timeseries.Counter.throughput_bps c ~t_start:1.0 ~t_end:3.0)

let test_counter_rate_series () =
  let c = Stats.Timeseries.Counter.create () in
  Stats.Timeseries.Counter.record c ~clock:{ Event_heap.cell_time = 0.25 } ~bytes:500;
  Stats.Timeseries.Counter.record c ~clock:{ Event_heap.cell_time = 1.25 } ~bytes:1500;
  let series = Stats.Timeseries.Counter.rate_series_bps c ~bin:1. ~t_end:2. in
  Alcotest.(check int) "two bins" 2 (Array.length series);
  check_float "bin0 bps" 4000. (snd series.(0));
  check_float "bin1 bps" 12000. (snd series.(1))

let test_shuffle_deterministic () =
  let mk () =
    let rng = Stats.Rng.create 77 in
    let a = Array.init 20 Fun.id in
    Stats.Rng.shuffle_in_place rng a;
    a
  in
  Alcotest.(check (array int)) "same seed, same shuffle" (mk ()) (mk ())

(* ----------------------------------------------------------- Properties *)

let prop_percentile_bounded =
  QCheck.Test.make ~name:"percentile lies within [min,max]" ~count:200
    QCheck.(array_of_size Gen.(int_range 1 50) (float_bound_exclusive 1000.))
    (fun xs ->
      QCheck.assume (Array.length xs > 0);
      let s = Stats.Descriptive.summarize xs in
      let open Stats.Descriptive in
      s.min <= s.p25 && s.p25 <= s.median && s.median <= s.p75 && s.p75 <= s.max)

let prop_cdf_monotone =
  QCheck.Test.make ~name:"empirical CDF is monotone" ~count:100
    QCheck.(array_of_size Gen.(int_range 1 100) (float_bound_exclusive 100.))
    (fun xs ->
      QCheck.assume (Array.length xs > 0);
      let c = Stats.Cdf.of_samples xs in
      let lo = Array.fold_left Float.min xs.(0) xs
      and hi = Array.fold_left Float.max xs.(0) xs in
      let n = 20 in
      let ok = ref true in
      let prev = ref (-1.) in
      for i = 0 to n do
        let x = lo +. ((hi -. lo) *. float_of_int i /. float_of_int n) in
        let y = Stats.Cdf.eval c x in
        if y < !prev then ok := false;
        prev := y
      done;
      !ok)

let prop_exponential_positive =
  QCheck.Test.make ~name:"exponential samples are positive" ~count:500
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let rng = Stats.Rng.create seed in
      Stats.Rng.exponential rng ~mean:1.0 > 0.)

(* [bernoulli] is the one way to draw a Bernoulli outcome and must be
   exactly [uniform < p]: the same outcomes and the same stream
   consumption, on two generators of the same seed, at every p in [0, 1]
   (the ends included). *)
let prop_bernoulli_is_uniform_lt =
  QCheck.Test.make ~name:"bernoulli = uniform < p on the same stream" ~count:500
    QCheck.(triple (int_range 0 1_000_000) (float_bound_inclusive 1.) (int_range 1 50))
    (fun (seed, p, draws) ->
      let a = Stats.Rng.create seed in
      let b = Stats.Rng.create seed in
      let same = ref true in
      for _ = 1 to draws do
        List.iter
          (fun p -> if Stats.Rng.bernoulli a p <> (Stats.Rng.uniform b < p) then same := false)
          [ p; 0.; 1. ]
      done;
      !same && Int64.equal (Stats.Rng.bits64 a) (Stats.Rng.bits64 b))

let () =
  Alcotest.run "stats"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independence;
          Alcotest.test_case "pinned stream" `Quick test_rng_pinned_stream;
          Alcotest.test_case "uniform allocates only its result" `Quick
            test_rng_uniform_alloc;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
          Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
        ] );
      ( "dist",
        [
          Alcotest.test_case "bernoulli rate" `Slow test_bernoulli_rate;
        ] );
      ( "descriptive",
        [
          Alcotest.test_case "mean/var" `Quick test_mean_var;
          Alcotest.test_case "mean of empty" `Quick test_mean_empty;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "percentile interpolation" `Quick test_percentile_interpolation;
          Alcotest.test_case "summarize" `Quick test_summarize;
          Alcotest.test_case "cov of constant" `Quick test_cov;
          Alcotest.test_case "jain index" `Quick test_jain_index;
        ] );
      ( "timeseries",
        [
          Alcotest.test_case "binning" `Quick test_counter_binning;
          Alcotest.test_case "rate" `Quick test_counter_rate;
          Alcotest.test_case "monotonic guard" `Quick test_counter_monotonic_guard;
          Alcotest.test_case "counter throughput" `Quick test_counter_throughput;
        ] );
      ( "more-dist",
        [
          Alcotest.test_case "timeseries between" `Quick test_counter_window;
          Alcotest.test_case "counter rate series" `Quick test_counter_rate_series;
          Alcotest.test_case "shuffle deterministic" `Quick test_shuffle_deterministic;
        ] );
      ( "cdf",
        [
          Alcotest.test_case "eval" `Quick test_cdf_eval;
          Alcotest.test_case "quantile" `Quick test_cdf_quantile;
          Alcotest.test_case "points monotone" `Quick test_cdf_points_monotone;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_percentile_bounded;
            prop_cdf_monotone;
            prop_exponential_positive;
            prop_bernoulli_is_uniform_lt;
          ] );
    ]
