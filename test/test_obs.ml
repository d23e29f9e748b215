(* Unit tests for the observability plane: metrics registry, protocol
   journal, JSON rendering, and the netsim clients of the plane
   (monitor delay-ring wrap). *)

(* --------------------------------------------------------------- metrics *)

let test_counter_basics () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "requests_total" in
  Obs.Metrics.Counter.inc c;
  Obs.Metrics.Counter.add c 4;
  Alcotest.(check int) "registry lookup" 5
    (Obs.Metrics.counter_value m "requests_total");
  (* Looking the same name+labels up again returns the same instrument. *)
  let c' = Obs.Metrics.counter m "requests_total" in
  Obs.Metrics.Counter.inc c';
  Alcotest.(check int) "shared instrument" 6
    (Obs.Metrics.counter_value m "requests_total")

let test_labels_distinguish () =
  let m = Obs.Metrics.create () in
  let a = Obs.Metrics.counter m ~labels:[ ("session", "1") ] "pkts_total" in
  let b = Obs.Metrics.counter m ~labels:[ ("session", "2") ] "pkts_total" in
  Obs.Metrics.Counter.add a 3;
  Obs.Metrics.Counter.add b 7;
  Alcotest.(check (list (pair (list (pair string string)) int))) "label sets"
    [ ([ ("session", "1") ], 3); ([ ("session", "2") ], 7) ]
    (Obs.Metrics.labelled_values m "pkts_total");
  Alcotest.(check int) "sum over labels" 10
    (Obs.Metrics.sum_counters m "pkts_total");
  (* Label order must not matter. *)
  let a' =
    Obs.Metrics.counter m
      ~labels:[ ("session", "1"); ("node", "0") ]
      "tagged_total"
  in
  let a'' =
    Obs.Metrics.counter m
      ~labels:[ ("node", "0"); ("session", "1") ]
      "tagged_total"
  in
  Obs.Metrics.Counter.inc a';
  Obs.Metrics.Counter.inc a'';
  Alcotest.(check (list (pair (list (pair string string)) int)))
    "order-insensitive labels"
    [ ([ ("node", "0"); ("session", "1") ], 2) ]
    (Obs.Metrics.labelled_values m "tagged_total")

(* Gauges and histograms are read back from the JSON a sink writes. *)
let test_gauge_histogram () =
  let m = Obs.Metrics.create () in
  let g = Obs.Metrics.gauge m "rate_bps" in
  Obs.Metrics.Gauge.set g 125_000.;
  let h = Obs.Metrics.histogram m "delay_s" in
  let samples = [| 0.1; 0.3 |] in
  Obs.Metrics.Histogram.observe h samples 0;
  Obs.Metrics.Histogram.observe h samples 1;
  match Obs.Metrics.to_json m with
  | Obs.Json.Arr [ Obs.Json.Obj hist; Obs.Json.Obj gauge ] ->
      let num o k =
        match List.assoc k o with
        | Obs.Json.Float v -> v
        | Obs.Json.Int n -> float_of_int n
        | _ -> nan
      in
      Alcotest.(check (float 1e-9)) "gauge" 125_000. (num gauge "value");
      Alcotest.(check (float 1e-9)) "hist count" 2. (num hist "count");
      Alcotest.(check (float 1e-9)) "hist sum" 0.4 (num hist "sum");
      Alcotest.(check (float 1e-9)) "hist min" 0.1 (num hist "min");
      Alcotest.(check (float 1e-9)) "hist max" 0.3 (num hist "max")
  | _ -> Alcotest.fail "expected two instruments"

let test_kind_mismatch () =
  let m = Obs.Metrics.create () in
  ignore (Obs.Metrics.counter m "x_total");
  Alcotest.check_raises "same name, different kind"
    (Invalid_argument "Metrics: x_total already registered as a counter")
    (fun () -> ignore (Obs.Metrics.gauge m "x_total"))

let test_null_registry () =
  let m = Obs.Metrics.null in
  (* Handles from the null registry are valid, cheap and unregistered. *)
  let c = Obs.Metrics.counter m "ghost_total" in
  Obs.Metrics.Counter.inc c;
  let g = Obs.Metrics.gauge m "ghost" in
  Obs.Metrics.Gauge.set g 1.;
  let h = Obs.Metrics.histogram m "ghost_s" in
  Obs.Metrics.Histogram.observe h [| 1. |] 0;
  Alcotest.(check string) "nothing registered" "[]"
    (Obs.Json.to_string (Obs.Metrics.to_json m));
  Alcotest.(check int) "lookup is 0" 0
    (Obs.Metrics.counter_value m "ghost_total")

let test_snapshot_sorted () =
  let m = Obs.Metrics.create () in
  ignore (Obs.Metrics.counter m "b_total");
  ignore (Obs.Metrics.counter m "a_total");
  ignore (Obs.Metrics.gauge m "c");
  let names =
    match Obs.Metrics.to_json m with
    | Obs.Json.Arr xs ->
        List.map
          (function
            | Obs.Json.Obj o -> (
                match List.assoc "name" o with Obs.Json.Str s -> s | _ -> "?")
            | _ -> "?")
          xs
    | _ -> []
  in
  Alcotest.(check (list string)) "sorted by name" [ "a_total"; "b_total"; "c" ]
    names

(* --------------------------------------------------------------- journal *)

let scope = Obs.Journal.scope ~session:1 ~node:3 "test.component"

(* A journal keeps its newest 65536 entries, oldest first. *)
let test_journal_order_and_rotation () =
  let j = Obs.Journal.create () in
  let n = 65536 + 2 in
  for i = 1 to n do
    Obs.Journal.record j ~time:(float_of_int i) scope
      (Obs.Journal.Note (string_of_int i))
  done;
  Alcotest.(check int) "total recorded" n (Obs.Journal.total_recorded j);
  let notes =
    List.map
      (fun e ->
        match e.Obs.Journal.event with Obs.Journal.Note s -> s | _ -> "?")
      (Obs.Journal.entries j)
  in
  Alcotest.(check int) "rotation bounds the window" 65536 (List.length notes);
  Alcotest.(check (pair string string)) "oldest-first window" ("3", string_of_int n)
    (List.hd notes, List.nth notes 65535)

let test_journal_filters () =
  let j = Obs.Journal.create () in
  let other = Obs.Journal.scope "other" in
  Obs.Journal.record j ~time:1. scope Obs.Journal.Join;
  Obs.Journal.record j ~time:2. ~severity:Obs.Journal.Warn scope
    (Obs.Journal.Timeout { what = "clr" });
  Obs.Journal.record j ~time:3. ~severity:Obs.Journal.Error other
    (Obs.Journal.Fault { kind = "partition"; detail = "" });
  Alcotest.(check int) "all" 3 (Obs.Journal.count j ());
  Alcotest.(check int) "warn and above" 2
    (Obs.Journal.count j ~min_severity:Obs.Journal.Warn ());
  Alcotest.(check int) "error and above" 1
    (Obs.Journal.count j ~min_severity:Obs.Journal.Error ());
  Alcotest.(check int) "by event" 1
    (Obs.Journal.count_events j (function
      | Obs.Journal.Timeout _ -> true
      | _ -> false))

let test_journal_null () =
  let j = Obs.Journal.null in
  Obs.Journal.record j ~time:1. scope Obs.Journal.Join;
  Alcotest.(check int) "no-op record" 0 (Obs.Journal.total_recorded j);
  Alcotest.(check int) "nothing retained" 0
    (List.length (Obs.Journal.entries j))

(* ------------------------------------------------------------------ json *)

let test_json_rendering () =
  let open Obs.Json in
  Alcotest.(check string) "scalars" "[null,true,42,1.5]"
    (to_string (Arr [ Null; Bool true; Int 42; Float 1.5 ]));
  Alcotest.(check string) "string escaping" {|"a\"b\\c\nd"|}
    (to_string (Str "a\"b\\c\nd"));
  Alcotest.(check string) "object" {|{"k":"v","n":0}|}
    (to_string (Obj [ ("k", Str "v"); ("n", Int 0) ]));
  (* Non-finite floats have no JSON form: rendered as null. *)
  Alcotest.(check string) "nan is null" "[null,null]"
    (to_string (Arr [ Float nan; Float infinity ]))

let test_json_parse_roundtrip () =
  let open Obs.Json in
  let doc =
    Obj
      [
        ("name", Str "bench \"x\"\n");
        ("ns", Float 25419.2);
        ("count", Int 256);
        ("ok", Bool true);
        ("gap", Null);
        ("rows", Arr [ Int 1; Float 2.5; Arr []; Obj [] ]);
      ]
  in
  (match of_string (to_string doc) with
  | Ok parsed ->
      Alcotest.(check string) "roundtrip" (to_string doc) (to_string parsed)
  | Error e -> Alcotest.fail ("roundtrip parse failed: " ^ e));
  (match of_string "  [1, -2.5e3, \"\\u00e9\"]  " with
  | Ok (Arr [ Int 1; Float f; Str s ]) ->
      Alcotest.(check (float 1e-9)) "exponent" (-2500.) f;
      Alcotest.(check string) "unicode escape" "\xc3\xa9" s
  | Ok _ -> Alcotest.fail "unexpected shape"
  | Error e -> Alcotest.fail e);
  let bad s =
    match of_string s with
    | Ok _ -> Alcotest.fail ("accepted invalid JSON: " ^ s)
    | Error _ -> ()
  in
  List.iter bad [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

let test_sink_to_json () =
  let sink = Obs.Sink.create () in
  let c = Obs.Metrics.counter sink.Obs.Sink.metrics "n_total" in
  Obs.Metrics.Counter.inc c;
  Obs.Sink.event sink ~time:1.5 scope (Obs.Journal.Note "hi");
  let s = Obs.Json.to_string (Obs.Sink.to_json sink) in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has metrics key" true (contains {|"metrics"|});
  Alcotest.(check bool) "has journal key" true (contains {|"journal"|});
  Alcotest.(check bool) "metric sample present" true (contains {|"n_total"|});
  Alcotest.(check bool) "journal entry present" true (contains {|"note"|})

(* ------------------------------------------------- monitor delay-ring wrap *)

let test_monitor_delay_ring_wrap () =
  let sink = Obs.Sink.create () in
  let e = Netsim.Engine.create ~obs:sink () in
  let mon = Netsim.Monitor.create e in
  let cap = 100_000 in
  let n = cap + 5_000 in
  (* Engine time stays 0; a packet created at -i has one-way delay i. *)
  for i = 1 to n do
    Netsim.Monitor.tap mon
      (Netsim.Packet.make ~flow:9 ~size:10 ~src:0 ~dst:(Netsim.Packet.Unicast 1)
         ~created:(-.float_of_int i) (Netsim.Packet.Raw 0))
  done;
  Alcotest.(check int) "all packets counted" n
    (Obs.Metrics.sum_counters sink.Obs.Sink.metrics "netsim_monitor_packets_total");
  let d = Option.get (Netsim.Monitor.delay_summary mon ~flow:9) in
  Alcotest.(check int) "ring caps retained samples" cap d.Stats.Descriptive.n;
  (* The most recent [cap] samples survive: delays n-cap+1 .. n. *)
  Alcotest.(check (float 1e-9)) "oldest retained" (float_of_int (n - cap + 1))
    d.Stats.Descriptive.min;
  Alcotest.(check (float 1e-9)) "newest retained" (float_of_int n)
    d.Stats.Descriptive.max

let test_monitor_delay_below_cap () =
  let e = Netsim.Engine.create () in
  let mon = Netsim.Monitor.create e in
  for i = 1 to 300 do
    Netsim.Monitor.tap mon
      (Netsim.Packet.make ~flow:2 ~size:10 ~src:0 ~dst:(Netsim.Packet.Unicast 1)
         ~created:(-.float_of_int i) (Netsim.Packet.Raw 0))
  done;
  let d = Option.get (Netsim.Monitor.delay_summary mon ~flow:2) in
  Alcotest.(check int) "all retained below cap" 300 d.Stats.Descriptive.n;
  Alcotest.(check (float 1e-9)) "first sample" 1. d.Stats.Descriptive.min;
  Alcotest.(check (float 1e-9)) "last sample" 300. d.Stats.Descriptive.max

(* --------------------------------------------- end-to-end session journal *)

let test_session_publishes () =
  let sink = Obs.Sink.create () in
  let st =
    Experiments.Scenario.star ~seed:11 ~obs:sink ~link_bps:1e6
      ~link_delays:[| 0.02; 0.03 |] ()
  in
  Tfmcc_core.Session.start st.Experiments.Scenario.s_session ~at:0.;
  Experiments.Scenario.run_until st.Experiments.Scenario.s_sc 10.;
  let j = sink.Obs.Sink.journal in
  let has ev = Obs.Journal.count_events j ev > 0 in
  Alcotest.(check bool) "receivers journal joins" true
    (has (function Obs.Journal.Join -> true | _ -> false));
  Alcotest.(check bool) "sender journals feedback rounds" true
    (has (function Obs.Journal.Round_start _ -> true | _ -> false));
  Alcotest.(check bool) "sender journals rate changes" true
    (has (function Obs.Journal.Rate_change _ -> true | _ -> false));
  Alcotest.(check bool) "sender journals a CLR election" true
    (has (function Obs.Journal.Clr_change _ -> true | _ -> false));
  let m = sink.Obs.Sink.metrics in
  Alcotest.(check bool) "sender data counter moved" true
    (Obs.Metrics.sum_counters m "tfmcc_sender_packets_sent_total" > 0);
  Alcotest.(check bool) "receiver data counter moved" true
    (Obs.Metrics.sum_counters m "tfmcc_receiver_packets_received_total" > 0);
  Alcotest.(check bool) "link counters moved" true
    (Obs.Metrics.sum_counters m "netsim_link_tx_total" > 0)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "labels distinguish" `Quick test_labels_distinguish;
          Alcotest.test_case "gauge and histogram" `Quick test_gauge_histogram;
          Alcotest.test_case "kind mismatch raises" `Quick test_kind_mismatch;
          Alcotest.test_case "null registry" `Quick test_null_registry;
          Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
        ] );
      ( "journal",
        [
          Alcotest.test_case "order and rotation" `Quick
            test_journal_order_and_rotation;
          Alcotest.test_case "count filters" `Quick test_journal_filters;
          Alcotest.test_case "null journal" `Quick test_journal_null;
        ] );
      ( "json",
        [
          Alcotest.test_case "rendering" `Quick test_json_rendering;
          Alcotest.test_case "parse roundtrip" `Quick test_json_parse_roundtrip;
          Alcotest.test_case "sink document" `Quick test_sink_to_json;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "delay ring wrap past cap" `Quick
            test_monitor_delay_ring_wrap;
          Alcotest.test_case "delay ring below cap" `Quick
            test_monitor_delay_below_cap;
        ] );
      ( "session",
        [
          Alcotest.test_case "agents publish through the sink" `Quick
            test_session_publishes;
        ] );
    ]
