(* Unit tests for the observability plane: metrics registry, protocol
   journal, JSON rendering, and the netsim clients of the plane (trace
   rotation bookkeeping, monitor delay-ring wrap). *)

(* --------------------------------------------------------------- metrics *)

let test_counter_basics () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "requests_total" in
  Obs.Metrics.Counter.inc c;
  Obs.Metrics.Counter.add c 4;
  Alcotest.(check int) "handle value" 5 (Obs.Metrics.Counter.value c);
  Alcotest.(check int) "registry lookup" 5
    (Obs.Metrics.counter_value m "requests_total");
  (* Looking the same name+labels up again returns the same instrument. *)
  let c' = Obs.Metrics.counter m "requests_total" in
  Obs.Metrics.Counter.inc c';
  Alcotest.(check int) "shared instrument" 6 (Obs.Metrics.Counter.value c)

let test_labels_distinguish () =
  let m = Obs.Metrics.create () in
  let a = Obs.Metrics.counter m ~labels:[ ("session", "1") ] "pkts_total" in
  let b = Obs.Metrics.counter m ~labels:[ ("session", "2") ] "pkts_total" in
  Obs.Metrics.Counter.add a 3;
  Obs.Metrics.Counter.add b 7;
  Alcotest.(check int) "label set 1" 3
    (Obs.Metrics.counter_value m ~labels:[ ("session", "1") ] "pkts_total");
  Alcotest.(check int) "label set 2" 7
    (Obs.Metrics.counter_value m ~labels:[ ("session", "2") ] "pkts_total");
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
  Alcotest.(check int) "order-insensitive labels" 1
    (Obs.Metrics.Counter.value a'')

let test_gauge_histogram () =
  let m = Obs.Metrics.create () in
  let g = Obs.Metrics.gauge m "rate_bps" in
  Obs.Metrics.Gauge.set g 125_000.;
  Alcotest.(check (float 1e-9)) "gauge" 125_000. (Obs.Metrics.Gauge.value g);
  let h = Obs.Metrics.histogram m "delay_s" in
  let samples = [| 0.1; 0.3 |] in
  Obs.Metrics.Histogram.observe h samples 0;
  Obs.Metrics.Histogram.observe h samples 1;
  Alcotest.(check int) "hist count" 2 (Obs.Metrics.Histogram.count h);
  Alcotest.(check (float 1e-9)) "hist sum" 0.4 (Obs.Metrics.Histogram.sum h);
  Alcotest.(check (float 1e-9)) "hist mean" 0.2 (Obs.Metrics.Histogram.mean h);
  Alcotest.(check (float 1e-9)) "hist min" 0.1
    (Obs.Metrics.Histogram.min_value h);
  Alcotest.(check (float 1e-9)) "hist max" 0.3
    (Obs.Metrics.Histogram.max_value h)

let test_kind_mismatch () =
  let m = Obs.Metrics.create () in
  ignore (Obs.Metrics.counter m "x_total");
  Alcotest.check_raises "same name, different kind"
    (Invalid_argument "Metrics: x_total already registered as a counter")
    (fun () -> ignore (Obs.Metrics.gauge m "x_total"))

let test_null_registry () =
  let m = Obs.Metrics.null in
  Alcotest.(check bool) "disabled" false (Obs.Metrics.enabled m);
  (* Handles from the null registry are valid, cheap and unregistered. *)
  let c = Obs.Metrics.counter m "ghost_total" in
  Obs.Metrics.Counter.inc c;
  let g = Obs.Metrics.gauge m "ghost" in
  Obs.Metrics.Gauge.set g 1.;
  let h = Obs.Metrics.histogram m "ghost_s" in
  Obs.Metrics.Histogram.observe h [| 1. |] 0;
  Alcotest.(check int) "empty snapshot" 0
    (List.length (Obs.Metrics.snapshot m));
  Alcotest.(check int) "lookup is 0" 0
    (Obs.Metrics.counter_value m "ghost_total")

let test_snapshot_sorted () =
  let m = Obs.Metrics.create () in
  ignore (Obs.Metrics.counter m "b_total");
  ignore (Obs.Metrics.counter m "a_total");
  ignore (Obs.Metrics.gauge m "c");
  let names =
    List.map (fun s -> s.Obs.Metrics.name) (Obs.Metrics.snapshot m)
  in
  Alcotest.(check (list string)) "sorted by name" [ "a_total"; "b_total"; "c" ]
    names

(* --------------------------------------------------------------- journal *)

let scope = Obs.Journal.scope ~session:1 ~node:3 "test.component"

let test_journal_order_and_rotation () =
  let j = Obs.Journal.create ~capacity:4 () in
  for i = 1 to 6 do
    Obs.Journal.record j ~time:(float_of_int i) scope
      (Obs.Journal.Note (Printf.sprintf "e%d" i))
  done;
  Alcotest.(check int) "total recorded" 6 (Obs.Journal.total_recorded j);
  Alcotest.(check int) "dropped by rotation" 2 (Obs.Journal.dropped j);
  let notes =
    List.map
      (fun e ->
        match e.Obs.Journal.event with Obs.Journal.Note s -> s | _ -> "?")
      (Obs.Journal.entries j)
  in
  Alcotest.(check (list string)) "oldest-first window"
    [ "e3"; "e4"; "e5"; "e6" ] notes

let test_journal_clear () =
  let j = Obs.Journal.create ~capacity:4 () in
  for i = 1 to 9 do
    Obs.Journal.record j ~time:(float_of_int i) scope Obs.Journal.Join
  done;
  Obs.Journal.clear j;
  Alcotest.(check int) "retained after clear" 0
    (List.length (Obs.Journal.entries j));
  Alcotest.(check int) "total reset" 0 (Obs.Journal.total_recorded j);
  Alcotest.(check int) "dropped reset" 0 (Obs.Journal.dropped j);
  (* And the ring keeps working after a clear. *)
  Obs.Journal.record j ~time:10. scope Obs.Journal.Join;
  Alcotest.(check int) "records again" 1 (Obs.Journal.total_recorded j)

let test_journal_filters () =
  let j = Obs.Journal.create () in
  let other = Obs.Journal.scope "other" in
  Obs.Journal.record j ~time:1. scope Obs.Journal.Join;
  Obs.Journal.record j ~time:2. ~severity:Obs.Journal.Warn scope
    (Obs.Journal.Timeout { what = "clr" });
  Obs.Journal.record j ~time:3. ~severity:Obs.Journal.Error other
    (Obs.Journal.Fault { kind = "partition"; detail = "" });
  Alcotest.(check int) "all" 3 (Obs.Journal.count j ());
  Alcotest.(check int) "by component" 2
    (Obs.Journal.count j ~component:"test.component" ());
  Alcotest.(check int) "warn and above" 2
    (Obs.Journal.count j ~min_severity:Obs.Journal.Warn ());
  Alcotest.(check int) "both filters" 1
    (Obs.Journal.count j ~component:"test.component"
       ~min_severity:Obs.Journal.Warn ());
  Alcotest.(check int) "by event" 1
    (Obs.Journal.count_events j (function
      | Obs.Journal.Timeout _ -> true
      | _ -> false))

let test_journal_null () =
  let j = Obs.Journal.null in
  Alcotest.(check bool) "disabled" false (Obs.Journal.enabled j);
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

(* -------------------------------------------------- trace ring bookkeeping *)

(* Drive a real link so Tx/Deliver events hit the tracer, with a capacity
   small enough that the ring rotates: per-kind counts must track the
   retained window, clear must reset both counts and total_recorded. *)
let test_trace_rotation_and_clear () =
  let e = Netsim.Engine.create () in
  let topo = Netsim.Topology.create e in
  let a = Netsim.Topology.add_node topo in
  let b = Netsim.Topology.add_node topo in
  let ab, _ =
    Netsim.Topology.connect topo ~bandwidth_bps:1e6 ~delay_s:0.001 a b
  in
  let tr = Netsim.Trace.create ~capacity:6 () in
  Netsim.Trace.attach tr ab;
  for _ = 1 to 10 do
    Netsim.Link.send ab
      (Netsim.Packet.make ~flow:1 ~size:100 ~src:0 ~dst:(Netsim.Packet.Unicast 1)
         ~created:(Netsim.Engine.now e) (Netsim.Packet.Raw 0))
  done;
  Netsim.Engine.run e;
  (* 10 packets -> 10 Tx + 10 Deliver recorded, 6 retained. *)
  Alcotest.(check int) "total recorded" 20 (Netsim.Trace.total_recorded tr);
  let retained = List.length (Netsim.Trace.events tr) in
  Alcotest.(check int) "ring capacity bounds window" 6 retained;
  let by_kind k = Netsim.Trace.count tr ~kind:k in
  Alcotest.(check int) "per-kind counts track the window" retained
    (by_kind Netsim.Trace.Tx + by_kind Netsim.Trace.Deliver
   + by_kind Netsim.Trace.Drop_queue
   + by_kind Netsim.Trace.Drop_loss);
  (* The O(1) counts must agree with recounting the retained events. *)
  let recount k =
    List.length
      (List.filter (fun ev -> ev.Netsim.Trace.kind = k) (Netsim.Trace.events tr))
  in
  List.iter
    (fun k ->
      Alcotest.(check int) "count = recount" (recount k) (by_kind k))
    [ Netsim.Trace.Tx; Netsim.Trace.Deliver; Netsim.Trace.Drop_queue;
      Netsim.Trace.Drop_loss ];
  Netsim.Trace.clear tr;
  Alcotest.(check int) "clear empties window" 0
    (List.length (Netsim.Trace.events tr));
  Alcotest.(check int) "clear resets total_recorded" 0
    (Netsim.Trace.total_recorded tr);
  Alcotest.(check int) "clear resets per-kind counts" 0
    (by_kind Netsim.Trace.Tx + by_kind Netsim.Trace.Deliver);
  (* Tracing continues after clear. *)
  Netsim.Link.send ab
    (Netsim.Packet.make ~flow:1 ~size:100 ~src:0 ~dst:(Netsim.Packet.Unicast 1)
       ~created:(Netsim.Engine.now e) (Netsim.Packet.Raw 0));
  Netsim.Engine.run e;
  Alcotest.(check int) "records again" 2 (Netsim.Trace.total_recorded tr)

let test_trace_registry_counters () =
  let sink = Obs.Sink.create () in
  let e = Netsim.Engine.create ~obs:sink () in
  let topo = Netsim.Topology.create e in
  let a = Netsim.Topology.add_node topo in
  let b = Netsim.Topology.add_node topo in
  let ab, _ =
    Netsim.Topology.connect topo ~bandwidth_bps:1e6 ~delay_s:0.001 a b
  in
  let tr = Netsim.Trace.create ~capacity:4 ~sink () in
  Netsim.Trace.attach tr ab;
  for _ = 1 to 8 do
    Netsim.Link.send ab
      (Netsim.Packet.make ~flow:1 ~size:100 ~src:0 ~dst:(Netsim.Packet.Unicast 1)
         ~created:(Netsim.Engine.now e) (Netsim.Packet.Raw 0))
  done;
  Netsim.Engine.run e;
  Netsim.Trace.clear tr;
  (* Registry counters are monotonic: rotation and clear never rewind them. *)
  Alcotest.(check int) "tx counter survives clear" 8
    (Obs.Metrics.counter_value sink.Obs.Sink.metrics
       ~labels:[ ("kind", "tx") ] "netsim_trace_events_total");
  Alcotest.(check int) "deliver counter survives clear" 8
    (Obs.Metrics.counter_value sink.Obs.Sink.metrics
       ~labels:[ ("kind", "deliver") ] "netsim_trace_events_total")

(* ------------------------------------------------- monitor delay-ring wrap *)

let test_monitor_delay_ring_wrap () =
  let e = Netsim.Engine.create () in
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
    (Netsim.Monitor.packets mon ~flow:9);
  let d = Netsim.Monitor.delays mon ~flow:9 in
  Alcotest.(check int) "ring caps retained samples" cap (Array.length d);
  (* The most recent [cap] samples survive, in arrival order: delays
     n-cap+1 .. n. *)
  Alcotest.(check (float 1e-9)) "oldest retained" (float_of_int (n - cap + 1))
    d.(0);
  Alcotest.(check (float 1e-9)) "newest retained" (float_of_int n)
    d.(cap - 1);
  Alcotest.(check (float 1e-9)) "mid window monotonic"
    (d.(1000) -. d.(999)) 1.

let test_monitor_delay_below_cap () =
  let e = Netsim.Engine.create () in
  let mon = Netsim.Monitor.create e in
  for i = 1 to 300 do
    Netsim.Monitor.tap mon
      (Netsim.Packet.make ~flow:2 ~size:10 ~src:0 ~dst:(Netsim.Packet.Unicast 1)
         ~created:(-.float_of_int i) (Netsim.Packet.Raw 0))
  done;
  let d = Netsim.Monitor.delays mon ~flow:2 in
  Alcotest.(check int) "all retained below cap" 300 (Array.length d);
  Alcotest.(check (float 1e-9)) "arrival order" 1. d.(0);
  Alcotest.(check (float 1e-9)) "last sample" 300. d.(299)

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
          Alcotest.test_case "clear resets" `Quick test_journal_clear;
          Alcotest.test_case "count filters" `Quick test_journal_filters;
          Alcotest.test_case "null journal" `Quick test_journal_null;
        ] );
      ( "json",
        [
          Alcotest.test_case "rendering" `Quick test_json_rendering;
          Alcotest.test_case "parse roundtrip" `Quick test_json_parse_roundtrip;
          Alcotest.test_case "sink document" `Quick test_sink_to_json;
        ] );
      ( "trace",
        [
          Alcotest.test_case "rotation and clear" `Quick
            test_trace_rotation_and_clear;
          Alcotest.test_case "registry counters monotonic" `Quick
            test_trace_registry_counters;
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
