(* Wire-level unit tests of the TFMCC sender and receiver: hand-built
   packets are injected through a minimal topology so each §2 rule can be
   checked deterministically (no competing traffic, no loss randomness
   unless constructed). *)

let cfg = Tfmcc_core.Config.default

(* sender -- rx, plus a spare node for forged reports. *)
type rig = {
  engine : Netsim.Engine.t;
  topo : Netsim.Topology.t;
  sender_node : Netsim.Node.t;
  rx_node : Netsim.Node.t;
  rx2_node : Netsim.Node.t;
}

let make_rig ?(bandwidth_bps = 1e7) () =
  let engine = Netsim.Engine.create ~seed:71 () in
  let topo = Netsim.Topology.create engine in
  let sender_node = Netsim.Topology.add_node topo in
  let rx_node = Netsim.Topology.add_node topo in
  let rx2_node = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.connect topo ~bandwidth_bps ~delay_s:0.01 sender_node rx_node);
  ignore (Netsim.Topology.connect topo ~bandwidth_bps ~delay_s:0.01 sender_node rx2_node);
  { engine; topo; sender_node; rx_node; rx2_node }

(* Forge a receiver report and deliver it directly to the sender node. *)
let forge_report rig ~rx_id ?(rate = 50_000.) ?(have_rtt = true) ?(rtt = 0.05)
    ?(p = 0.01) ?(x_recv = 50_000.) ?(round = 1) ?(has_loss = true)
    ?(leaving = false) () =
  let now = Netsim.Engine.now rig.engine in
  let payload =
    Netsim_env.Report
      {
        session = 1;
        rx_id;
        ts = now;
        echo_ts = now -. 0.02;
        echo_delay = 0.;
        rate;
        have_rtt;
        rtt;
        p;
        x_recv;
        round;
        has_loss;
        leaving;
      }
  in
  let p =
    Netsim.Packet.make ~flow:(-1) ~size:40 ~src:rx_id
      ~dst:(Netsim.Packet.Unicast (Netsim.Node.id rig.sender_node))
      ~created:now payload
  in
  Netsim.Node.deliver_local rig.sender_node p

let run_for rig dt =
  Netsim.Engine.run ~until:(Netsim.Engine.now rig.engine +. dt) rig.engine

(* -------------------------------------------------------------- Sender *)

let started_sender ?initial_rate rig =
  let b = Netsim_env.backend rig.topo ~session:1 in
  let snd =
    Tfmcc_core.Sender.create ~env:(b.env rig.sender_node) ~cfg ~session:1 ?initial_rate ()
  in
  b.on_report rig.sender_node (Tfmcc_core.Sender.deliver_report snd);
  Tfmcc_core.Sender.start snd ~at:0.;
  (* let the first packet and round start *)
  run_for rig 0.1;
  snd

let test_sender_decreases_immediately () =
  let rig = make_rig () in
  let snd = started_sender ~initial_rate:100_000. rig in
  (* Out of slowstart via a loss report well below the current rate. *)
  forge_report rig ~rx_id:(Netsim.Node.id rig.rx_node) ~rate:20_000. ();
  run_for rig 0.01;
  Alcotest.(check bool) "slowstart ended" false (Tfmcc_core.Sender.in_slowstart snd);
  Alcotest.(check (float 1.)) "rate dropped to the report" 20_000.
    (Tfmcc_core.Sender.rate_bytes_per_s snd);
  Alcotest.(check (option int)) "reporter became CLR"
    (Some (Netsim.Node.id rig.rx_node))
    (Tfmcc_core.Sender.clr snd)

let test_sender_increase_capped () =
  let rig = make_rig () in
  let snd = started_sender ~initial_rate:100_000. rig in
  let clr = Netsim.Node.id rig.rx_node in
  forge_report rig ~rx_id:clr ~rate:20_000. ();
  run_for rig 0.01;
  (* CLR now asks for a much higher rate; the increase must be capped at
     ~1 packet per RTT per elapsed RTT. *)
  run_for rig 0.05 (* one RTT at rtt=0.05 *);
  forge_report rig ~rx_id:clr ~rate:1_000_000. ();
  run_for rig 0.01;
  let x = Tfmcc_core.Sender.rate_bytes_per_s snd in
  Alcotest.(check bool)
    (Printf.sprintf "bounded increase (got %.0f)" x)
    true
    (x < 20_000. +. (3. *. 1000.))

let test_sender_lower_report_steals_clr () =
  let rig = make_rig () in
  let snd = started_sender ~initial_rate:100_000. rig in
  forge_report rig ~rx_id:(Netsim.Node.id rig.rx_node) ~rate:50_000. ();
  run_for rig 0.01;
  forge_report rig ~rx_id:(Netsim.Node.id rig.rx2_node) ~rate:30_000. ();
  run_for rig 0.01;
  Alcotest.(check (option int)) "lower receiver takes over"
    (Some (Netsim.Node.id rig.rx2_node))
    (Tfmcc_core.Sender.clr snd);
  Alcotest.(check (float 1.)) "rate follows" 30_000.
    (Tfmcc_core.Sender.rate_bytes_per_s snd)

let test_sender_higher_non_clr_ignored () =
  let rig = make_rig () in
  let snd = started_sender ~initial_rate:100_000. rig in
  forge_report rig ~rx_id:(Netsim.Node.id rig.rx_node) ~rate:30_000. ();
  run_for rig 0.01;
  forge_report rig ~rx_id:(Netsim.Node.id rig.rx2_node) ~rate:80_000. ();
  run_for rig 0.01;
  Alcotest.(check (option int)) "CLR unchanged"
    (Some (Netsim.Node.id rig.rx_node))
    (Tfmcc_core.Sender.clr snd);
  Alcotest.(check (float 1.)) "rate unchanged" 30_000.
    (Tfmcc_core.Sender.rate_bytes_per_s snd)

let test_sender_leave_drops_clr () =
  let rig = make_rig () in
  let snd = started_sender ~initial_rate:100_000. rig in
  let clr = Netsim.Node.id rig.rx_node in
  forge_report rig ~rx_id:clr ~rate:30_000. ();
  run_for rig 0.01;
  forge_report rig ~rx_id:clr ~leaving:true ();
  run_for rig 0.01;
  Alcotest.(check (option int)) "CLR dropped" None (Tfmcc_core.Sender.clr snd);
  Alcotest.(check int) "counted as timeout/leave" 1 (Tfmcc_core.Sender.clr_timeouts snd)

let test_sender_no_rtt_report_rescaled () =
  let rig = make_rig () in
  let snd = started_sender ~initial_rate:100_000. rig in
  (* The forged report claims rate 10_000 computed with the 500 ms
     initial RTT; echo_ts is 20 ms ago, so the sender-side RTT is
     ~20 ms and the adjusted rate should be ~ 10_000 * 0.5/0.02 = 250_000
     — above the current rate, so the rate must NOT crash to 10_000. *)
  forge_report rig ~rx_id:(Netsim.Node.id rig.rx_node) ~rate:10_000.
    ~have_rtt:false ~rtt:0.5 ();
  run_for rig 0.01;
  Alcotest.(check bool)
    (Printf.sprintf "rate not crashed (got %.0f)"
       (Tfmcc_core.Sender.rate_bytes_per_s snd))
    true
    (Tfmcc_core.Sender.rate_bytes_per_s snd > 50_000.)

let test_sender_round_advances () =
  let rig = make_rig () in
  let snd = started_sender rig in
  let r0 = Tfmcc_core.Sender.round snd in
  run_for rig (2.5 *. Tfmcc_core.Sender.round_duration snd);
  Alcotest.(check bool) "rounds advance" true (Tfmcc_core.Sender.round snd >= r0 + 2)

(* ------------------------------------------------------------ Receiver *)

(* Deliver a forged data packet locally to the receiver. *)
let forge_data rig ~seq ?(rate = 50_000.) ?(round = 0) ?(round_duration = 1.)
    ?(clr = -1) ?(in_slowstart = false) ?echo ?fb () =
  let now = Netsim.Engine.now rig.engine in
  let payload =
    Netsim_env.Data
      {
        session = 1;
        seq;
        ts = now;
        rate;
        round;
        round_duration;
        max_rtt = 0.5;
        clr;
        in_slowstart;
        echo;
        fb;
        app = -1;
      }
  in
  let p =
    Netsim.Packet.make ~flow:1 ~size:1000
      ~src:(Netsim.Node.id rig.sender_node)
      ~dst:(Netsim.Packet.Multicast 1) ~created:now payload
  in
  Netsim.Node.deliver_local rig.rx_node p

let make_receiver rig =
  let b = Netsim_env.backend rig.topo ~session:1 in
  let r =
    Tfmcc_core.Receiver.create ~env:(b.env rig.rx_node) ~cfg ~session:1
      ~sender:(Netsim.Node.id rig.sender_node) ()
  in
  b.on_data rig.rx_node (Tfmcc_core.Receiver.deliver_data r);
  Tfmcc_core.Receiver.join r;
  r

let test_receiver_initial_rtt () =
  let rig = make_rig () in
  let r = make_receiver rig in
  forge_data rig ~seq:0 ();
  run_for rig 0.01;
  Alcotest.(check (float 1e-9)) "initial RTT" 0.5 (Tfmcc_core.Receiver.rtt r);
  Alcotest.(check bool) "no measurement" false
    (Tfmcc_core.Receiver.has_rtt_measurement r)

let test_receiver_echo_measures_rtt () =
  let rig = make_rig () in
  let r = make_receiver rig in
  forge_data rig ~seq:0 ();
  run_for rig 0.1;
  (* Echo a pretended report this receiver sent 60 ms ago. *)
  let now = Netsim.Engine.now rig.engine in
  forge_data rig ~seq:1
    ~echo:
      {
        Tfmcc_core.Wire.rx_id = Netsim.Node.id rig.rx_node;
        rx_ts = now -. 0.06;
        echo_delay = 0.01;
      }
    ();
  run_for rig 0.01;
  Alcotest.(check bool) "measured" true (Tfmcc_core.Receiver.has_rtt_measurement r);
  Alcotest.(check (float 1e-6)) "RTT = now - rx_ts - hold" 0.05
    (Tfmcc_core.Receiver.rtt r)

let test_receiver_echo_for_other_ignored () =
  let rig = make_rig () in
  let r = make_receiver rig in
  forge_data rig ~seq:0 ();
  run_for rig 0.1;
  let now = Netsim.Engine.now rig.engine in
  forge_data rig ~seq:1
    ~echo:{ Tfmcc_core.Wire.rx_id = 999; rx_ts = now -. 0.06; echo_delay = 0.01 }
    ();
  run_for rig 0.01;
  Alcotest.(check bool) "not measured" false
    (Tfmcc_core.Receiver.has_rtt_measurement r)

let test_receiver_detects_loss () =
  let rig = make_rig () in
  let r = make_receiver rig in
  forge_data rig ~seq:0 ();
  run_for rig 0.01;
  forge_data rig ~seq:1 ();
  run_for rig 0.01;
  forge_data rig ~seq:5 ();
  run_for rig 0.01;
  Alcotest.(check bool) "loss detected" true (Tfmcc_core.Receiver.has_loss r);
  Alcotest.(check bool) "p > 0" true (Tfmcc_core.Receiver.loss_event_rate r > 0.)

let test_receiver_becomes_clr_and_reports_periodically () =
  let rig = make_rig () in
  let r = make_receiver rig in
  forge_data rig ~seq:0 ~clr:(Netsim.Node.id rig.rx_node) ();
  run_for rig 0.01;
  Alcotest.(check bool) "knows it is CLR" true (Tfmcc_core.Receiver.is_clr r);
  let before = Tfmcc_core.Receiver.reports_sent r in
  (* CLR reports once per RTT (initially 500 ms). *)
  run_for rig 2.0;
  let sent = Tfmcc_core.Receiver.reports_sent r - before in
  Alcotest.(check bool)
    (Printf.sprintf "periodic CLR reports (%d in 2s)" sent)
    true
    (sent >= 3 && sent <= 6)

let test_receiver_demoted_clr_stops () =
  let rig = make_rig () in
  let r = make_receiver rig in
  forge_data rig ~seq:0 ~clr:(Netsim.Node.id rig.rx_node) ();
  run_for rig 0.6;
  forge_data rig ~seq:1 ~clr:12345 ();
  run_for rig 0.01;
  Alcotest.(check bool) "demoted" false (Tfmcc_core.Receiver.is_clr r);
  let before = Tfmcc_core.Receiver.reports_sent r in
  run_for rig 2.0;
  Alcotest.(check int) "no more periodic reports" before
    (Tfmcc_core.Receiver.reports_sent r)

let test_receiver_reports_during_slowstart_round () =
  let rig = make_rig () in
  let r = make_receiver rig in
  (* Slowstart data in round 0, then a new round 1 to arm the timer. *)
  forge_data rig ~seq:0 ~in_slowstart:true ();
  run_for rig 0.05;
  forge_data rig ~seq:1 ~in_slowstart:true ~round:1 ~round_duration:0.5 ();
  run_for rig 1.0;
  Alcotest.(check bool) "slowstart report sent" true
    (Tfmcc_core.Receiver.reports_sent r >= 1)

let test_receiver_suppressed_by_echo () =
  let rig = make_rig () in
  let r = make_receiver rig in
  (* Arm a slowstart round timer, then echo feedback: a rate report must
     cancel (slowstart reports cancel on any echo). *)
  forge_data rig ~seq:0 ~in_slowstart:true ();
  run_for rig 0.05;
  forge_data rig ~seq:1 ~in_slowstart:true ~round:1 ~round_duration:5. ();
  run_for rig 0.01;
  forge_data rig ~seq:2 ~in_slowstart:true ~round:1 ~round_duration:5.
    ~fb:{ Tfmcc_core.Wire.fb_rx_id = 999; fb_rate = 1.; fb_has_loss = false }
    ();
  run_for rig 6.;
  Alcotest.(check int) "timer was suppressed" 1
    (Tfmcc_core.Receiver.timers_suppressed r)

let test_receiver_not_suppressed_when_left () =
  let rig = make_rig () in
  let r = make_receiver rig in
  forge_data rig ~seq:0 ();
  Tfmcc_core.Receiver.leave r ();
  forge_data rig ~seq:1 ();
  run_for rig 0.1;
  Alcotest.(check int) "no packets counted after leave" 1
    (Tfmcc_core.Receiver.packets_received r)

(* ----------------------------------------------------------- Aggregator *)

(* Forge a report addressed to the aggregator node (rx_node hosts it). *)
let forge_report_to rig ~dst ~rx_id ~rate ~round ~has_loss ?(leaving = false) () =
  let now = Netsim.Engine.now rig.engine in
  let payload =
    Netsim_env.Report
      {
        session = 1;
        rx_id;
        ts = now;
        echo_ts = now -. 0.02;
        echo_delay = 0.;
        rate;
        have_rtt = true;
        rtt = 0.05;
        p = 0.01;
        x_recv = rate;
        round;
        has_loss;
        leaving;
      }
  in
  let p =
    Netsim.Packet.make ~flow:(-1) ~size:40 ~src:rx_id
      ~dst:(Netsim.Packet.Unicast (Netsim.Node.id dst))
      ~created:now payload
  in
  Netsim.Node.deliver_local dst p

let count_reports_at node =
  let n = ref 0 in
  Netsim.Node.attach node (fun p ->
      match p.Netsim.Packet.payload with
      | Netsim_env.Report _ -> incr n
      | _ -> ());
  n

(* An aggregator on [rx_node] below the sender, hooked to its reports. *)
let make_aggregator rig =
  let b = Netsim_env.backend rig.topo ~session:1 in
  let a =
    Tfmcc_core.Aggregator.create ~env:(b.env rig.rx_node) ~session:1
      ~parent:(Netsim.Node.id rig.sender_node)
  in
  b.on_report rig.rx_node (Tfmcc_core.Aggregator.deliver_report a);
  a

let test_aggregator_forwards_minimum () =
  let rig = make_rig () in
  let agg = make_aggregator rig in
  let out = count_reports_at rig.sender_node in
  let seen = ref None in
  Netsim.Node.attach rig.sender_node (fun p ->
      match p.Netsim.Packet.payload with
      | Netsim_env.Report { rate; _ } -> seen := Some rate
      | _ -> ());
  forge_report_to rig ~dst:rig.rx_node ~rx_id:101 ~rate:50_000. ~round:1
    ~has_loss:true ();
  forge_report_to rig ~dst:rig.rx_node ~rx_id:102 ~rate:20_000. ~round:1
    ~has_loss:true ();
  forge_report_to rig ~dst:rig.rx_node ~rx_id:103 ~rate:80_000. ~round:1
    ~has_loss:true ();
  run_for rig 0.5;
  Alcotest.(check int) "three in" 3 (Tfmcc_core.Aggregator.reports_in agg);
  Alcotest.(check int) "one out" 1 !out;
  Alcotest.(check (option (float 1.))) "minimum forwarded" (Some 20_000.) !seen

let test_aggregator_loss_dominates () =
  let rig = make_rig () in
  let _agg = make_aggregator rig in
  let seen = ref None in
  Netsim.Node.attach rig.sender_node (fun p ->
      match p.Netsim.Packet.payload with
      | Netsim_env.Report { rate; has_loss; _ } -> seen := Some (rate, has_loss)
      | _ -> ());
  (* a lower rate-only report must lose to a loss report *)
  forge_report_to rig ~dst:rig.rx_node ~rx_id:101 ~rate:10_000. ~round:1
    ~has_loss:false ();
  forge_report_to rig ~dst:rig.rx_node ~rx_id:102 ~rate:30_000. ~round:1
    ~has_loss:true ();
  run_for rig 0.5;
  Alcotest.(check (option (pair (float 1.) bool))) "loss report wins"
    (Some (30_000., true))
    !seen

let test_aggregator_one_per_round () =
  let rig = make_rig () in
  let agg = make_aggregator rig in
  let out = count_reports_at rig.sender_node in
  (* Ten reports of the same round from distinct receivers, spaced wider
     than the 0.2 s hold: only the first flush (plus more-restrictive
     upgrades) may pass. *)
  for i = 0 to 9 do
    ignore
      (Netsim.Engine.at rig.engine
         ~time:(0.3 *. float_of_int (i + 1))
         (fun () ->
           forge_report_to rig ~dst:rig.rx_node
             ~rx_id:(200 + i)
             ~rate:(50_000. +. (1000. *. float_of_int i))
             ~round:1 ~has_loss:true ()));
    ()
  done;
  run_for rig 4.;
  Alcotest.(check int) "ten in" 10 (Tfmcc_core.Aggregator.reports_in agg);
  Alcotest.(check bool) (Printf.sprintf "throttled to ~1 (got %d)" !out) true (!out <= 2)

let test_aggregator_leave_passes_through () =
  let rig = make_rig () in
  let _agg = make_aggregator rig in
  let n = count_reports_at rig.sender_node in
  forge_report_to rig ~dst:rig.rx_node ~rx_id:101 ~rate:50_000. ~round:1
    ~has_loss:true ~leaving:true ();
  (* hold is 0.2 s: arrival well before it proves pass-through *)
  run_for rig 0.05;
  Alcotest.(check int) "forwarded immediately" 1 !n

let test_aggregator_clr_passthrough () =
  let rig = make_rig () in
  let _agg = make_aggregator rig in
  let out = count_reports_at rig.sender_node in
  (* Establish rx 101 as the subtree's spoken-for receiver... *)
  forge_report_to rig ~dst:rig.rx_node ~rx_id:101 ~rate:50_000. ~round:1
    ~has_loss:true ();
  run_for rig 0.5;
  let out0 = !out in
  (* ...then its repeated same-round reports pass through unthrottled. *)
  for _ = 1 to 5 do
    forge_report_to rig ~dst:rig.rx_node ~rx_id:101 ~rate:51_000. ~round:1
      ~has_loss:true ();
    run_for rig 0.05
  done;
  Alcotest.(check int) "CLR reports pass" (out0 + 5) !out

(* ------------------------------------------------------- Byte codec *)

module W = Tfmcc_core.Wire

(* The decode contract under fuzzing: never raise, and Ok implies the
   payload passes the field validators (no NaN, no negative rates, no
   out-of-range loss probability). *)
let decoded_report_ok = function
  | Ok
      (W.Report
        { rx_id; ts; echo_ts; echo_delay; rate; rtt; p; x_recv; round; _ }) ->
      W.report_fields_valid ~rx_id ~ts ~echo_ts ~echo_delay ~rate ~rtt ~p
        ~x_recv ~round
  | Ok _ -> false  (* decode_report must only ever produce Report *)
  | Error _ -> true

let decoded_data_ok = function
  | Ok
      (W.Data
        { seq; ts; rate; round; round_duration; max_rtt; clr; echo; fb; _ }) ->
      W.data_fields_valid ~seq ~ts ~rate ~round ~round_duration ~max_rtt ~clr
        ~echo ~fb
  | Ok _ -> false
  | Error _ -> true

let valid_report_bytes () =
  W.encode_report
    {
      W.session = 7;
      rx_id = 12;
      ts = 1.5;
      echo_ts = 1.4;
      echo_delay = 0.01;
      rate = 50_000.;
      have_rtt = true;
      rtt = 0.05;
      p = 0.01;
      x_recv = 48_000.;
      round = 3;
      has_loss = true;
      leaving = false;
    }

(* A valid data header with or without its echo and fb sections. *)
let data_with ~echo ~fb =
  {
    W.session = 7;
    seq = 99;
    ts = 2.5;
    rate = 125_000.;
    round = 4;
    round_duration = 0.5;
    max_rtt = 0.5;
    clr = 12;
    in_slowstart = false;
    echo = (if echo then Some { W.rx_id = 12; rx_ts = 2.4; echo_delay = 0.02 } else None);
    fb = (if fb then Some { W.fb_rx_id = 31; fb_rate = 40_000.; fb_has_loss = true } else None);
    app = -1;
  }

let valid_data_bytes () =
  W.encode_data
    {
      W.session = 7;
      seq = 99;
      ts = 2.5;
      rate = 125_000.;
      round = 4;
      round_duration = 0.5;
      max_rtt = 0.5;
      clr = 12;
      in_slowstart = false;
      echo = Some { W.rx_id = 12; rx_ts = 2.4; echo_delay = 0.02 };
      fb = Some { W.fb_rx_id = 31; fb_rate = 40_000.; fb_has_loss = true };
      app = -1;
    }

let test_codec_report_roundtrip () =
  match W.decode_report (valid_report_bytes ()) with
  | Ok (W.Report r) ->
      Alcotest.(check int) "session" 7 r.session;
      Alcotest.(check int) "rx_id" 12 r.rx_id;
      Alcotest.(check int) "round" 3 r.round;
      Alcotest.(check (float 0.)) "rate" 50_000. r.rate;
      Alcotest.(check (float 0.)) "rtt" 0.05 r.rtt;
      Alcotest.(check (float 0.)) "p" 0.01 r.p;
      Alcotest.(check bool) "have_rtt" true r.have_rtt;
      Alcotest.(check bool) "has_loss" true r.has_loss;
      Alcotest.(check bool) "leaving" false r.leaving
  | Ok _ -> Alcotest.fail "decoded to a non-report payload"
  | Error e -> Alcotest.fail ("valid encoding rejected: " ^ e)

let test_codec_data_roundtrip () =
  match W.decode_data (valid_data_bytes ()) with
  | Ok (W.Data d) ->
      Alcotest.(check int) "session" 7 d.session;
      Alcotest.(check int) "seq" 99 d.seq;
      Alcotest.(check int) "clr" 12 d.clr;
      Alcotest.(check (float 0.)) "rate" 125_000. d.rate;
      (match d.echo with
      | Some e -> Alcotest.(check int) "echo rx" 12 e.W.rx_id
      | None -> Alcotest.fail "echo lost");
      (match d.fb with
      | Some f ->
          Alcotest.(check (float 0.)) "fb rate" 40_000. f.W.fb_rate;
          Alcotest.(check bool) "fb loss" true f.W.fb_has_loss
      | None -> Alcotest.fail "fb lost")
  | Ok _ -> Alcotest.fail "decoded to a non-data payload"
  | Error e -> Alcotest.fail ("valid encoding rejected: " ^ e)

let test_codec_data_roundtrip_bare () =
  match
    W.decode_data
      (W.encode_data
         {
           W.session = 1;
           seq = 0;
           ts = 0.;
           rate = 1_000.;
           round = 0;
           round_duration = 0.5;
           max_rtt = 0.5;
           clr = -1;
           in_slowstart = true;
           echo = None;
           fb = None;
           app = -1;
         })
  with
  | Ok (W.Data d) ->
      Alcotest.(check bool) "in_slowstart" true d.in_slowstart;
      Alcotest.(check bool) "no echo" true (d.echo = None);
      Alcotest.(check bool) "no fb" true (d.fb = None)
  | Ok _ -> Alcotest.fail "decoded to a non-data payload"
  | Error e -> Alcotest.fail ("valid encoding rejected: " ^ e)

let test_codec_truncated_rejected () =
  let b = valid_report_bytes () in
  for len = 0 to Bytes.length b - 1 do
    match W.decode_report (Bytes.sub b 0 len) with
    | Ok _ -> Alcotest.fail (Printf.sprintf "truncated report (%d) decoded" len)
    | Error _ -> ()
  done;
  let d = valid_data_bytes () in
  for len = 0 to Bytes.length d - 1 do
    match W.decode_data (Bytes.sub d 0 len) with
    | Ok _ -> Alcotest.fail (Printf.sprintf "truncated data (%d) decoded" len)
    | Error _ -> ()
  done

let bytes_gen =
  QCheck.Gen.(
    sized_size (int_range 0 200) (fun n st ->
        Bytes.init n (fun _ -> Char.chr (int_range 0 255 st))))

let arbitrary_bytes =
  QCheck.make ~print:(fun b -> Printf.sprintf "%S" (Bytes.to_string b)) bytes_gen

let prop_decode_report_never_raises =
  QCheck.Test.make ~name:"random bytes: decode_report total and validated"
    ~count:2000 arbitrary_bytes (fun b -> decoded_report_ok (W.decode_report b))

let prop_decode_data_never_raises =
  QCheck.Test.make ~name:"random bytes: decode_data total and validated"
    ~count:2000 arbitrary_bytes (fun b -> decoded_data_ok (W.decode_data b))

(* Bit-flipped valid encodings: the nastiest corpus, because all but one
   bit is plausible.  Flips of float payload bytes can produce NaN /
   negative / huge values; the decoder must catch every one. *)
let prop_decode_report_bitflip =
  QCheck.Test.make ~name:"bit-flipped report: decode total and validated"
    ~count:2000
    QCheck.(pair (int_bound (82 * 8 - 1)) (int_bound 1000))
    (fun (bit, _salt) ->
      let b = valid_report_bytes () in
      let i = bit / 8 and m = 1 lsl (bit mod 8) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor m));
      decoded_report_ok (W.decode_report b))

let prop_decode_data_bitflip =
  QCheck.Test.make ~name:"bit-flipped data: decode total and validated"
    ~count:2000
    QCheck.(pair (int_bound (114 * 8 - 1)) (int_bound 1000))
    (fun (bit, _salt) ->
      let b = valid_data_bytes () in
      let i = bit / 8 and m = 1 lsl (bit mod 8) in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor m));
      decoded_data_ok (W.decode_data b))

(* Extreme-value generator: finite floats spanning the full magnitude
   range plus every non-finite special.  The encoders must accept any
   all-finite assignment (decode-total contract unchanged) and raise
   Invalid_argument the moment one field is NaN or infinite — a
   non-finite value round-trips bit-exactly and would otherwise only
   surface as a decode rejection at every receiver. *)
let extreme_float_gen =
  QCheck.Gen.(
    oneof
      [
        return Float.nan;
        return Float.infinity;
        return Float.neg_infinity;
        return 0.;
        return (-0.);
        return Float.max_float;
        return (-.Float.max_float);
        return Float.min_float;
        return 1e308;
        return (-1e308);
        return 4.94e-324 (* subnormal *);
        float_range (-1e9) 1e9;
      ])

let extreme_float =
  QCheck.make ~print:(Printf.sprintf "%h") extreme_float_gen

let encode_report_with ~ts ~echo_ts ~echo_delay ~rate ~rtt ~p ~x_recv =
  W.encode_report
    {
      W.session = 7;
      rx_id = 12;
      ts;
      echo_ts;
      echo_delay;
      rate;
      have_rtt = true;
      rtt;
      p;
      x_recv;
      round = 3;
      has_loss = true;
      leaving = false;
    }

let encode_data_with ~ts ~rate ~round_duration ~max_rtt ~rx_ts ~e_delay
    ~fb_rate =
  W.encode_data
    {
      W.session = 7;
      seq = 99;
      ts;
      rate;
      round = 4;
      round_duration;
      max_rtt;
      clr = 12;
      in_slowstart = false;
      echo = Some { W.rx_id = 12; rx_ts; echo_delay = e_delay };
      fb = Some { W.fb_rx_id = 31; fb_rate; fb_has_loss = true };
      app = -1;
    }

let all_finite l = List.for_all Float.is_finite l

let prop_encode_report_finite_guard =
  QCheck.Test.make
    ~name:"extreme floats: encode_report accepts finite, rejects non-finite"
    ~count:2000
    QCheck.(
      tup7 extreme_float extreme_float extreme_float extreme_float
        extreme_float extreme_float extreme_float)
    (fun (ts, echo_ts, echo_delay, rate, rtt, p, x_recv) ->
      match encode_report_with ~ts ~echo_ts ~echo_delay ~rate ~rtt ~p ~x_recv with
      | b ->
          all_finite [ ts; echo_ts; echo_delay; rate; rtt; p; x_recv ]
          && Bytes.length b = W.encoded_report_size
          && decoded_report_ok (W.decode_report b)
      | exception Invalid_argument _ ->
          not (all_finite [ ts; echo_ts; echo_delay; rate; rtt; p; x_recv ]))

let prop_encode_data_finite_guard =
  QCheck.Test.make
    ~name:"extreme floats: encode_data accepts finite, rejects non-finite"
    ~count:2000
    QCheck.(
      tup7 extreme_float extreme_float extreme_float extreme_float
        extreme_float extreme_float extreme_float)
    (fun (ts, rate, round_duration, max_rtt, rx_ts, e_delay, fb_rate) ->
      match
        encode_data_with ~ts ~rate ~round_duration ~max_rtt ~rx_ts ~e_delay
          ~fb_rate
      with
      | b ->
          all_finite [ ts; rate; round_duration; max_rtt; rx_ts; e_delay; fb_rate ]
          && Bytes.length b = W.encoded_data_size
          && decoded_data_ok (W.decode_data b)
      | exception Invalid_argument _ ->
          not
            (all_finite
               [ ts; rate; round_duration; max_rtt; rx_ts; e_delay; fb_rate ]))

let test_encode_rejects_nonfinite () =
  let expect_invalid name f =
    match f () with
    | (_ : bytes) -> Alcotest.fail (name ^ ": non-finite field encoded")
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "report NaN rate" (fun () ->
      encode_report_with ~ts:1.5 ~echo_ts:1.4 ~echo_delay:0.01 ~rate:Float.nan
        ~rtt:0.05 ~p:0.01 ~x_recv:48_000.);
  expect_invalid "report inf x_recv" (fun () ->
      encode_report_with ~ts:1.5 ~echo_ts:1.4 ~echo_delay:0.01 ~rate:50_000.
        ~rtt:0.05 ~p:0.01 ~x_recv:Float.infinity);
  expect_invalid "data -inf ts" (fun () ->
      encode_data_with ~ts:Float.neg_infinity ~rate:125_000. ~round_duration:0.5
        ~max_rtt:0.5 ~rx_ts:2.4 ~e_delay:0.02 ~fb_rate:40_000.);
  expect_invalid "data NaN echo delay" (fun () ->
      encode_data_with ~ts:2.5 ~rate:125_000. ~round_duration:0.5 ~max_rtt:0.5
        ~rx_ts:2.4 ~e_delay:Float.nan ~fb_rate:40_000.);
  expect_invalid "data NaN fb rate" (fun () ->
      encode_data_with ~ts:2.5 ~rate:125_000. ~round_duration:0.5 ~max_rtt:0.5
        ~rx_ts:2.4 ~e_delay:0.02 ~fb_rate:Float.nan)

(* [decode ~len b] reads a frame in place: it must agree with decoding
   a copy of the prefix, [Ok] value and [Error] string alike.  The
   buffers are valid reports and data headers (with every echo/fb
   combination) as well as random bytes, each with a random tail and
   sometimes one flipped bit, cut at a random length. *)
let frame_in_buffer_gen =
  QCheck.Gen.(
    let data_bytes = map2 (fun echo fb -> W.encode_data (data_with ~echo ~fb)) bool bool in
    let head = oneof [ return (valid_report_bytes ()); data_bytes; bytes_gen ] in
    head >>= fun h ->
    bytes_gen >>= fun tail ->
    let b = Bytes.cat h tail in
    let n = Bytes.length b in
    (if n > 0 then
       opt (int_bound ((n * 8) - 1)) >|= function
       | Some bit ->
           let i = bit / 8 in
           Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))))
       | None -> ()
     else return ())
    >>= fun () ->
    oneof [ int_bound n; return (Bytes.length h); return n ] >|= fun len -> (b, len))

let prop_decode_len_matches_copy =
  QCheck.Test.make ~name:"decode ~len reads the prefix in place" ~count:2000
    (QCheck.make
       ~print:(fun (b, len) -> Printf.sprintf "len %d of %S" len (Bytes.to_string b))
       frame_in_buffer_gen)
    (fun (b, len) -> W.decode ~len b = W.decode (Bytes.sub b 0 len))

(* Absolute allocation budgets of the codec, in minor words per call.
   An encode writes into the caller's buffer and allocates nothing; a
   decode allocates only the decoded message: the [Ok] and [Data] or
   [Report] boxes, the record and one box per float field, plus the
   option and record of an echo (10 words) and of an fb echo (8). *)
let words_per_call f =
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let check_words name ~budget w =
  if w > budget then Alcotest.failf "%s: %.2f minor words per call (budget %.0f)" name w budget

let test_codec_encode_budget () =
  let buf = Bytes.create W.encoded_data_size in
  List.iter
    (fun (echo, fb) ->
      let d = data_with ~echo ~fb in
      check_words
        (Printf.sprintf "encode_data_into echo=%b fb=%b" echo fb)
        ~budget:0.
        (words_per_call (fun () -> ignore (W.encode_data_into buf d : int))))
    [ (false, false); (true, false); (false, true); (true, true) ];
  let r =
    match W.decode_report (valid_report_bytes ()) with
    | Ok (W.Report r) -> r
    | _ -> Alcotest.fail "valid report rejected"
  in
  check_words "encode_report_into" ~budget:0.
    (words_per_call (fun () -> ignore (W.encode_report_into buf r : int)))

let test_codec_decode_budget () =
  List.iter
    (fun (echo, fb) ->
      let frame = W.encode_data (data_with ~echo ~fb) in
      let budget = 25. +. (if echo then 10. else 0.) +. if fb then 8. else 0. in
      check_words
        (Printf.sprintf "decode data echo=%b fb=%b" echo fb)
        ~budget
        (words_per_call (fun () -> ignore (W.decode frame))))
    [ (false, false); (true, false); (false, true); (true, true) ];
  let frame = valid_report_bytes () in
  check_words "decode report" ~budget:32. (words_per_call (fun () -> ignore (W.decode frame)))

let () =
  Alcotest.run "tfmcc_wire"
    [
      ( "sender",
        [
          Alcotest.test_case "immediate decrease" `Quick test_sender_decreases_immediately;
          Alcotest.test_case "capped increase" `Quick test_sender_increase_capped;
          Alcotest.test_case "lower report steals CLR" `Quick test_sender_lower_report_steals_clr;
          Alcotest.test_case "higher non-CLR ignored" `Quick test_sender_higher_non_clr_ignored;
          Alcotest.test_case "leave drops CLR" `Quick test_sender_leave_drops_clr;
          Alcotest.test_case "no-RTT report rescaled" `Quick test_sender_no_rtt_report_rescaled;
          Alcotest.test_case "rounds advance" `Quick test_sender_round_advances;
        ] );
      ( "receiver",
        [
          Alcotest.test_case "initial RTT" `Quick test_receiver_initial_rtt;
          Alcotest.test_case "echo measures RTT" `Quick test_receiver_echo_measures_rtt;
          Alcotest.test_case "foreign echo ignored" `Quick test_receiver_echo_for_other_ignored;
          Alcotest.test_case "detects loss" `Quick test_receiver_detects_loss;
          Alcotest.test_case "CLR duty" `Quick test_receiver_becomes_clr_and_reports_periodically;
          Alcotest.test_case "CLR demotion" `Quick test_receiver_demoted_clr_stops;
          Alcotest.test_case "slowstart report" `Quick test_receiver_reports_during_slowstart_round;
          Alcotest.test_case "echo suppression" `Quick test_receiver_suppressed_by_echo;
          Alcotest.test_case "leave stops accounting" `Quick test_receiver_not_suppressed_when_left;
        ] );
      ( "aggregator",
        [
          Alcotest.test_case "forwards minimum" `Quick test_aggregator_forwards_minimum;
          Alcotest.test_case "loss dominates" `Quick test_aggregator_loss_dominates;
          Alcotest.test_case "one per round" `Quick test_aggregator_one_per_round;
          Alcotest.test_case "leave passthrough" `Quick test_aggregator_leave_passes_through;
          Alcotest.test_case "CLR passthrough" `Quick test_aggregator_clr_passthrough;
        ] );
      ( "codec",
        [
          Alcotest.test_case "report roundtrip" `Quick test_codec_report_roundtrip;
          Alcotest.test_case "data roundtrip" `Quick test_codec_data_roundtrip;
          Alcotest.test_case "bare data roundtrip" `Quick test_codec_data_roundtrip_bare;
          Alcotest.test_case "truncations rejected" `Quick test_codec_truncated_rejected;
          Alcotest.test_case "encode rejects non-finite" `Quick
            test_encode_rejects_nonfinite;
                  Alcotest.test_case "encode allocates nothing" `Quick test_codec_encode_budget;
          Alcotest.test_case "decode allocates only the message" `Quick
            test_codec_decode_budget;
        ] );
      ( "codec fuzz",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_decode_report_never_raises;
            prop_decode_data_never_raises;
            prop_decode_report_bitflip;
            prop_decode_data_bitflip;
            prop_encode_report_finite_guard;
            prop_encode_data_finite_guard;
            prop_decode_len_matches_copy;
          ] );
    ]
