(* Conformance checklist: precise, paper-section-referenced behaviours of
   the TFMCC implementation, checked at the wire level (forged packets,
   deterministic timing).  Complements the per-module unit tests. *)

let cfg = Tfmcc_core.Config.default

type rig = {
  engine : Netsim.Engine.t;
  topo : Netsim.Topology.t;
  sender_node : Netsim.Node.t;
  rx1 : Netsim.Node.t;
  rx2 : Netsim.Node.t;
  rx3 : Netsim.Node.t;
}

let make_rig () =
  let engine = Netsim.Engine.create ~seed:111 () in
  let topo = Netsim.Topology.create engine in
  let sender_node = Netsim.Topology.add_node topo in
  let rx1 = Netsim.Topology.add_node topo in
  let rx2 = Netsim.Topology.add_node topo in
  let rx3 = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:1e8 ~delay_s:0.001 sender_node rx1);
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:1e8 ~delay_s:0.001 sender_node rx2);
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:1e8 ~delay_s:0.001 sender_node rx3);
  { engine; topo; sender_node; rx1; rx2; rx3 }

let run_for rig dt =
  Netsim.Engine.run ~until:(Netsim.Engine.now rig.engine +. dt) rig.engine

(* The sender, or a receiver on [node], hooked as [Session.build] hooks
   them. *)
let sender_at rig ?initial_rate () =
  let b = Netsim_env.backend rig.topo ~session:1 in
  let s =
    Tfmcc_core.Sender.create ~env:(b.env rig.sender_node) ~cfg ~session:1 ?initial_rate ()
  in
  b.on_report rig.sender_node (Tfmcc_core.Sender.deliver_report s);
  s

let receiver_at rig ?ntp_error node =
  let b = Netsim_env.backend rig.topo ~session:1 in
  let r =
    Tfmcc_core.Receiver.create ~env:(b.env node) ~cfg ~session:1
      ~sender:(Netsim.Node.id rig.sender_node) ?ntp_error ()
  in
  b.on_data node (Tfmcc_core.Receiver.deliver_data r);
  r

let forge_report rig ~rx_id ?(rate = 50_000.) ?(have_rtt = true) ?(rtt = 0.05)
    ?(x_recv = 50_000.) ?(round = 0) ?(has_loss = true) () =
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
        p = 0.01;
        x_recv;
        round;
        has_loss;
        leaving = false;
      }
  in
  Netsim.Node.deliver_local rig.sender_node
    (Netsim.Packet.make ~flow:(-1) ~size:40 ~src:rx_id
       ~dst:(Netsim.Packet.Unicast (Netsim.Node.id rig.sender_node))
       ~created:now payload)

(* Collect the echoes the sender puts on its outgoing data packets. *)
let watch_echoes rig =
  let echoes = ref [] in
  let watch node =
    Netsim.Node.attach node (fun p ->
        match p.Netsim.Packet.payload with
        | Netsim_env.Data { echo = Some e; _ } ->
            if not (List.mem e.Tfmcc_core.Wire.rx_id !echoes) then
              echoes := e.Tfmcc_core.Wire.rx_id :: !echoes
        | _ -> ())
  in
  watch rig.rx1;
  (* multicast: one copy is enough, but rx2's copy is identical *)
  echoes

(* --------------------------------------------------------------- checks *)

(* §2.1: the control equation at a reference point.  With b = 2,
   s = 1000 B, R = 100 ms, p = 1 %:
   denominator = R(sqrt(2bp/3) + 12 sqrt(3bp/8) p (1+32p²))
               = 0.1(0.115470 + 12·0.0866025·0.01·1.0032) = 0.0125897...
   T = 1000 / that = 79,430 B/s (±1). *)
let test_equation_reference_point () =
  let t = Tcp_model.Padhye.throughput ~b:2. ~s:1000 ~rtt:0.1 0.01 in
  Alcotest.(check (float 5.)) "Eq.(1) reference value" 79430.7 t

(* §2.1: the equation is used with the receiver's own measurements: a
   receiver with a larger RTT must calculate a proportionally smaller
   rate (T ∝ 1/R exactly, since t_RTO = 4R). *)
let test_equation_inverse_rtt_scaling () =
  let a = Tcp_model.Padhye.throughput ~b:2. ~s:1000 ~rtt:0.05 0.01 in
  let b = Tcp_model.Padhye.throughput ~b:2. ~s:1000 ~rtt:0.2 0.01 in
  Alcotest.(check (float 1e-6)) "T scales exactly as 1/R" 4. (a /. b)

(* §2.4.2: echo priority — "receivers that have not yet measured their
   RTT" come before "non-CLR receivers with previous RTT measurements".
   With an established CLR, two non-CLR reports arrive back-to-back; the
   no-RTT receiver must be echoed before the measured one. *)
let test_echo_priority_no_rtt_first () =
  let rig = make_rig () in
  Netsim.Topology.join rig.topo ~group:1 rig.rx1;
  let echoes = watch_echoes rig in
  let snd = sender_at rig ~initial_rate:20_000. () in
  Tfmcc_core.Sender.start snd ~at:0.;
  run_for rig 0.2;
  (* rx1 becomes CLR (lowest rate). *)
  forge_report rig ~rx_id:(Netsim.Node.id rig.rx1) ~rate:10_000. ~have_rtt:true ();
  run_for rig 0.3;
  (* Non-CLR reports: rx3 measured, rx2 not. *)
  forge_report rig ~rx_id:(Netsim.Node.id rig.rx3) ~rate:90_000. ~have_rtt:true ();
  forge_report rig ~rx_id:(Netsim.Node.id rig.rx2) ~rate:95_000. ~have_rtt:false ();
  echoes := [];
  run_for rig 1.0;
  let order = List.rev !echoes in
  let pos id =
    let rec find i = function
      | [] -> max_int
      | x :: rest -> if x = id then i else find (i + 1) rest
    in
    find 0 order
  in
  Alcotest.(check (option int)) "CLR established"
    (Some (Netsim.Node.id rig.rx1))
    (Tfmcc_core.Sender.clr snd);
  Alcotest.(check bool)
    (Printf.sprintf "no-RTT rx echoed before measured rx (order: %s)"
       (String.concat "," (List.map string_of_int order)))
    true
    (pos (Netsim.Node.id rig.rx2) < pos (Netsim.Node.id rig.rx3))

(* §2.6: the slowstart target is d = 2 times the MINIMUM reported receive
   rate: with receivers reporting 10 kB/s and 50 kB/s, the rate must not
   ramp beyond ~2 x 10 kB/s. *)
let test_slowstart_cap_two_times_min () =
  let rig = make_rig () in
  let snd = sender_at rig ~initial_rate:5_000. () in
  Tfmcc_core.Sender.start snd ~at:0.;
  run_for rig 0.1;
  for round = 0 to 30 do
    forge_report rig ~rx_id:(Netsim.Node.id rig.rx1) ~has_loss:false
      ~x_recv:10_000. ~round ();
    forge_report rig ~rx_id:(Netsim.Node.id rig.rx2) ~has_loss:false
      ~x_recv:50_000. ~round ();
    run_for rig 0.3
  done;
  Alcotest.(check bool) "still in slowstart" true (Tfmcc_core.Sender.in_slowstart snd);
  let x = Tfmcc_core.Sender.rate_bytes_per_s snd in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.0f <= 2 x min x_recv (20000)" x)
    true
    (x <= 21_000.)

(* §2.6: slowstart terminates on the first loss report and never
   restarts. *)
let test_slowstart_terminates_once () =
  let rig = make_rig () in
  let snd = sender_at rig () in
  Tfmcc_core.Sender.start snd ~at:0.;
  run_for rig 0.1;
  forge_report rig ~rx_id:(Netsim.Node.id rig.rx1) ~has_loss:true ~rate:30_000. ();
  run_for rig 0.05;
  Alcotest.(check bool) "terminated" false (Tfmcc_core.Sender.in_slowstart snd);
  (* A later no-loss report cannot re-enter slowstart. *)
  forge_report rig ~rx_id:(Netsim.Node.id rig.rx2) ~has_loss:false ~x_recv:90_000. ();
  run_for rig 0.05;
  Alcotest.(check bool) "stays terminated" false (Tfmcc_core.Sender.in_slowstart snd)

(* App. B: after the first loss event at receive rate r, the receiver's
   loss event rate must match the inverse of the simplified equation at
   r/2 (using its current — initial — RTT). *)
let test_appendix_b_initialization () =
  let rig = make_rig () in
  let rx = receiver_at rig rig.rx1 in
  Tfmcc_core.Receiver.join rx;
  Netsim.Topology.join rig.topo ~group:1 rig.rx1;
  (* Steady 50 packets/s = 50 kB/s for 2 s, then a gap. *)
  let seq = ref 0 in
  let forge_at t s =
    ignore
      (Netsim.Engine.at rig.engine ~time:t (fun () ->
           let payload =
             Netsim_env.Data
               {
                 session = 1;
                 seq = s;
                 ts = t;
                 rate = 50_000.;
                 round = 0;
                 round_duration = 3.;
                 max_rtt = 0.5;
                 clr = -1;
                 in_slowstart = false;
                 echo = None;
                 fb = None;
                 app = -1;
               }
           in
           Netsim.Node.deliver_local rig.rx1
             (Netsim.Packet.make ~flow:1 ~size:1000
                ~src:(Netsim.Node.id rig.sender_node)
                ~dst:(Netsim.Packet.Multicast 1) ~created:t payload)))
  in
  for i = 0 to 99 do
    forge_at (0.02 *. float_of_int i) !seq;
    incr seq
  done;
  (* one lost packet *)
  incr seq;
  forge_at 2.02 !seq;
  Netsim.Engine.run rig.engine;
  let p = Tfmcc_core.Receiver.loss_event_rate rx in
  (* x_recv at the loss ~ 50 kB/s; expected p = inverse Mathis at 25 kB/s
     with the initial 500 ms RTT. *)
  let expected =
    1. /. Tcp_model.Mathis.initial_loss_interval ~s:1000 ~rtt:0.5 ~rate:25_000.
  in
  Alcotest.(check bool)
    (Printf.sprintf "p (%.5f) within 2x of App. B seed (%.5f)" p expected)
    true
    (p > expected /. 2. && p < expected *. 2.)

(* §2.5: the CLR is exempt from suppression — echoed feedback must not
   stop its periodic reports. *)
let test_clr_exempt_from_suppression () =
  let rig = make_rig () in
  let rx = receiver_at rig rig.rx1 in
  Tfmcc_core.Receiver.join rx;
  let forge ~fb =
    let now = Netsim.Engine.now rig.engine in
    let payload =
      Netsim_env.Data
        {
          session = 1;
          seq = 0;
          ts = now;
          rate = 50_000.;
          round = 0;
          round_duration = 1.;
          max_rtt = 0.5;
          clr = Netsim.Node.id rig.rx1;
          in_slowstart = false;
          echo = None;
          fb;
          app = -1;
        }
    in
    Netsim.Node.deliver_local rig.rx1
      (Netsim.Packet.make ~flow:1 ~size:1000
         ~src:(Netsim.Node.id rig.sender_node)
         ~dst:(Netsim.Packet.Multicast 1) ~created:now payload)
  in
  forge ~fb:None;
  run_for rig 0.1;
  Alcotest.(check bool) "is CLR" true (Tfmcc_core.Receiver.is_clr rx);
  let before = Tfmcc_core.Receiver.reports_sent rx in
  forge ~fb:(Some { Tfmcc_core.Wire.fb_rx_id = 999; fb_rate = 1.; fb_has_loss = true });
  run_for rig 2.;
  Alcotest.(check bool) "CLR kept reporting despite echo" true
    (Tfmcc_core.Receiver.reports_sent rx > before + 1)

(* The estimator under test runs on this clock cell (the receiver's
   [Env.clock]); the helpers set it to the sample's time first, as the
   runtime would. *)
let rtt_clock = { Event_heap.cell_time = 0. }

let new_estimator () = Tfmcc_core.Rtt_estimator.create ~cfg ~clock:rtt_clock ~clock_offset:0. ()

let on_echo r ~now ~rx_ts ~echo_delay ~pkt_ts ~is_clr =
  rtt_clock.cell_time <- now;
  Tfmcc_core.Rtt_estimator.on_echo r ~rx_ts ~echo_delay ~pkt_ts ~is_clr

(* §2.4.1: synchronized-clock RTT initialization — with clocks in sync
   to within eps, the first packet seeds RTT = 2·(oneway + eps); a real
   measurement later replaces it. *)
let test_ntp_initialization_unit () =
  let est = new_estimator () in
  Tfmcc_core.Rtt_estimator.init_from_oneway est ~oneway:0.03 ~max_error:0.02;
  Alcotest.(check (float 1e-9)) "2(d+eps)" 0.1 ((Tfmcc_core.Rtt_estimator.floats est).rtt);
  Alcotest.(check bool) "flagged" true (Tfmcc_core.Rtt_estimator.ntp_initialized est);
  (* A looser estimate must not replace a tighter one. *)
  Tfmcc_core.Rtt_estimator.init_from_oneway est ~oneway:0.2 ~max_error:0.1;
  Alcotest.(check (float 1e-9)) "keeps the tighter value" 0.1
    ((Tfmcc_core.Rtt_estimator.floats est).rtt);
  (* A real measurement takes over entirely. *)
  on_echo est ~now:1.06 ~rx_ts:1.0 ~echo_delay:0.
    ~pkt_ts:1.03 ~is_clr:true;
  Alcotest.(check (float 1e-9)) "real measurement wins" 0.06
    ((Tfmcc_core.Rtt_estimator.floats est).rtt)

let test_ntp_initialization_receiver () =
  let rig = make_rig () in
  let rx = receiver_at rig ~ntp_error:0.03 rig.rx1 in
  Tfmcc_core.Receiver.join rx;
  let now = Netsim.Engine.now rig.engine in
  (* A data packet stamped 25 ms ago: oneway 25 ms, eps 30 ms ->
     initial RTT = 2(0.025+0.03) = 0.11 instead of 0.5. *)
  let payload =
    Netsim_env.Data
      {
        session = 1;
        seq = 0;
        ts = now -. 0.025;
        rate = 50_000.;
        round = 0;
        round_duration = 1.;
        max_rtt = 0.5;
        clr = -1;
        in_slowstart = false;
        echo = None;
        fb = None;
        app = -1;
      }
  in
  Netsim.Node.deliver_local rig.rx1
    (Netsim.Packet.make ~flow:1 ~size:1000
       ~src:(Netsim.Node.id rig.sender_node)
       ~dst:(Netsim.Packet.Multicast 1) ~created:now payload);
  run_for rig 0.01;
  Alcotest.(check (float 1e-6)) "NTP-seeded initial RTT" 0.11
    (Tfmcc_core.Receiver.rtt rx);
  Alcotest.(check bool) "still no real measurement" false
    (Tfmcc_core.Receiver.has_rtt_measurement rx)

(* §2.2: the CLR-loss timeout constant is 10 feedback delays. *)
let test_clr_timeout_constant () =
  Alcotest.(check (float 1e-9)) "10 feedback delays" 10.
    Tfmcc_core.Config.clr_timeout_rounds

(* §2.4.1: before any report, the sender's R_max is the 500 ms initial
   value (and so are the first feedback rounds: T = 6 x 0.5 = 3 s). *)
let test_initial_round_duration () =
  let rig = make_rig () in
  let snd = sender_at rig () in
  Tfmcc_core.Sender.start snd ~at:0.;
  run_for rig 0.05;
  Alcotest.(check (float 1e-9)) "R_max = initial" 0.5 (Tfmcc_core.Sender.max_rtt snd);
  Alcotest.(check (float 1e-6)) "T = 6 R_max" 3. (Tfmcc_core.Sender.round_duration snd)

let () =
  Alcotest.run "conformance"
    [
      ( "paper-sections",
        [
          Alcotest.test_case "2.1 equation reference value" `Quick test_equation_reference_point;
          Alcotest.test_case "2.1 T ~ 1/R exactly" `Quick test_equation_inverse_rtt_scaling;
          Alcotest.test_case "2.4.2 echo priority" `Quick test_echo_priority_no_rtt_first;
          Alcotest.test_case "2.6 slowstart cap 2x min" `Quick test_slowstart_cap_two_times_min;
          Alcotest.test_case "2.6 slowstart terminates once" `Quick test_slowstart_terminates_once;
          Alcotest.test_case "App B loss-history seed" `Quick test_appendix_b_initialization;
          Alcotest.test_case "2.5 CLR exempt from suppression" `Quick test_clr_exempt_from_suppression;
          Alcotest.test_case "2.4.1 NTP init (estimator)" `Quick test_ntp_initialization_unit;
          Alcotest.test_case "2.4.1 NTP init (receiver)" `Quick test_ntp_initialization_receiver;
          Alcotest.test_case "2.2 CLR timeout constant" `Quick test_clr_timeout_constant;
          Alcotest.test_case "2.4.1 initial round duration" `Quick test_initial_round_duration;
        ] );
    ]
