(* Fault-injection layer and TFMCC hardening: scripted partitions,
   packet corruption, duplication and reordering, receiver crashes, and
   the sender/receiver behaviour under them — CLR crash failover,
   feedback-starvation decay and recovery, and validation of malformed
   wire fields. *)

let cfg = Tfmcc_core.Config.default

(* --------------------------------------------------- netsim fault layer *)

type net = {
  engine : Netsim.Engine.t;
  topo : Netsim.Topology.t;
  a : Netsim.Node.t;
  b : Netsim.Node.t;
  ab : Netsim.Link.t;
  ba : Netsim.Link.t;
}

let two_nodes ?(seed = 11) () =
  let engine = Netsim.Engine.create ~seed ~obs:(Obs.Sink.create ()) () in
  let topo = Netsim.Topology.create engine in
  let a = Netsim.Topology.add_node topo in
  let b = Netsim.Topology.add_node topo in
  let ab, ba = Netsim.Topology.connect topo ~bandwidth_bps:1e7 ~delay_s:0.001 a b in
  { engine; topo; a; b; ab; ba }

(* A fault counter, read from the registry the experiments report. *)
let faults net name =
  Obs.Metrics.counter_value (Netsim.Engine.obs net.engine).Obs.Sink.metrics
    ("netsim_fault_" ^ name ^ "_total")

let send_at net ~time ~tag =
  ignore
    (Netsim.Engine.at net.engine ~time (fun () ->
         Netsim.Topology.inject net.topo
           (Netsim.Packet.make ~flow:1 ~size:100 ~src:(Netsim.Node.id net.a)
              ~dst:(Netsim.Packet.Unicast (Netsim.Node.id net.b))
              ~created:time (Netsim.Packet.Raw tag))))

let arrivals net =
  let seen = ref [] in
  Netsim.Node.attach net.b (fun p ->
      match p.Netsim.Packet.payload with
      | Netsim.Packet.Raw tag -> seen := tag :: !seen
      | _ -> ());
  fun () -> List.rev !seen

let test_partition_blocks_both_directions () =
  let net = two_nodes () in
  let f = Netsim.Fault.create net.engine in
  let got = arrivals net in
  Netsim.Fault.partition f ~links:[ net.ab; net.ba ] ~from_:0.1 ~until:0.3;
  send_at net ~time:0.2 ~tag:1;
  send_at net ~time:0.35 ~tag:2;
  Netsim.Engine.run ~until:1. net.engine;
  Alcotest.(check (list int)) "only post-heal packet" [ 2 ] (got ());
  Alcotest.(check int) "one partition" 1 (faults net "partitions");
  Alcotest.(check int) "both links flapped" 2 (faults net "link_flaps");
  Alcotest.(check bool) "healed" true
    (Netsim.Link.is_up net.ab && Netsim.Link.is_up net.ba)

let test_duplicate_injector () =
  let net = two_nodes () in
  let f = Netsim.Fault.create net.engine in
  let got = arrivals net in
  Netsim.Fault.duplicate f net.ab ~rate:1.0;
  for i = 1 to 5 do
    send_at net ~time:(0.01 *. float_of_int i) ~tag:i
  done;
  Netsim.Engine.run ~until:1. net.engine;
  Alcotest.(check int) "every packet doubled" 10 (List.length (got ()));
  Alcotest.(check int) "counted" 5 (faults net "duplications")

let test_corrupt_injector_replaces () =
  let net = two_nodes () in
  let f = Netsim.Fault.create net.engine in
  let got = arrivals net in
  (* The mangle's replacement travels in the original's place. *)
  Netsim.Fault.corrupt f net.ab ~rate:1.0
    ~mangle:(fun _rng p -> Netsim.Packet.with_payload p (Netsim.Packet.Raw 999));
  send_at net ~time:0.01 ~tag:1;
  Netsim.Engine.run ~until:1. net.engine;
  Alcotest.(check (list int)) "replacement delivered" [ 999 ] (got ());
  Alcotest.(check int) "counted" 1 (faults net "corruptions")

let test_reorder_injector () =
  let net = two_nodes () in
  let f = Netsim.Fault.create net.engine in
  let got = arrivals net in
  (* Each packet is held back up to 1 s, ten times the send spacing, so
     later packets overtake earlier ones. *)
  Netsim.Fault.reorder f net.ab ~rate:1.0 ~extra_delay:1.0;
  for i = 1 to 4 do
    send_at net ~time:(0.01 *. float_of_int i) ~tag:i
  done;
  Netsim.Engine.run ~until:2. net.engine;
  let seen = got () in
  Alcotest.(check int) "all delivered" 4 (List.length seen);
  Alcotest.(check bool)
    (Printf.sprintf "order changed (%s)"
       (String.concat "," (List.map string_of_int seen)))
    true
    (seen <> [ 1; 2; 3; 4 ]);
  Alcotest.(check int) "every packet held" 4 (faults net "reorderings")

(* Injectors on one link run in installation order and the first that
   acts wins: a corrupt-then-duplicate chain only ever corrupts, and the
   reverse chain only ever duplicates. *)
let test_injector_order () =
  let run install =
    let net = two_nodes () in
    let f = Netsim.Fault.create net.engine in
    let got = arrivals net in
    install f net.ab;
    for i = 1 to 5 do
      send_at net ~time:(0.01 *. float_of_int i) ~tag:i
    done;
    Netsim.Engine.run ~until:1. net.engine;
    (got (), faults net "corruptions", faults net "duplications")
  in
  let corrupt f l =
    Netsim.Fault.corrupt f l ~rate:1.0
      ~mangle:(fun _rng p -> Netsim.Packet.with_payload p (Netsim.Packet.Raw 999))
  in
  let duplicate f l = Netsim.Fault.duplicate f l ~rate:1.0 in
  let seen, c, d = run (fun f l -> corrupt f l; duplicate f l) in
  Alcotest.(check (list int)) "corrupt first: all replaced" [ 999; 999; 999; 999; 999 ] seen;
  Alcotest.(check (pair int int)) "corrupt first: 5 corruptions, 0 duplications" (5, 0) (c, d);
  let seen, c, d = run (fun f l -> duplicate f l; corrupt f l) in
  Alcotest.(check (list int)) "duplicate first: all doubled" [ 1; 1; 2; 2; 3; 3; 4; 4; 5; 5 ]
    (List.sort compare seen);
  Alcotest.(check (pair int int)) "duplicate first: 0 corruptions, 5 duplications" (0, 5) (c, d)

let test_crash_counter () =
  let net = two_nodes () in
  let f = Netsim.Fault.create net.engine in
  let crash_seen = ref false in
  Netsim.Fault.crash f ~at:0.1 (fun () -> crash_seen := true);
  Netsim.Engine.run ~until:1. net.engine;
  Alcotest.(check bool) "callback ran" true !crash_seen;
  Alcotest.(check int) "crashes" 1 (faults net "crashes")

let test_engine_every () =
  let e = Netsim.Engine.create ~seed:1 () in
  let ticks = ref 0 in
  ignore (Netsim.Engine.every e ~interval:0.1 (fun () -> incr ticks) : unit -> unit);
  Netsim.Engine.run ~until:0.55 e;
  Alcotest.(check int) "ticks at 0.1..0.5" 5 !ticks

(* --------------------------------------------------- TFMCC wire hardening *)

(* Same rig idiom as test_tfmcc_wire: forged packets delivered locally. *)
type rig = {
  r_engine : Netsim.Engine.t;
  r_topo : Netsim.Topology.t;
  sender_node : Netsim.Node.t;
  rx_node : Netsim.Node.t;
  rx2_node : Netsim.Node.t;
}

let make_rig () =
  let r_engine = Netsim.Engine.create ~seed:71 ~obs:(Obs.Sink.create ()) () in
  let r_topo = Netsim.Topology.create r_engine in
  let sender_node = Netsim.Topology.add_node r_topo in
  let rx_node = Netsim.Topology.add_node r_topo in
  let rx2_node = Netsim.Topology.add_node r_topo in
  ignore
    (Netsim.Topology.connect r_topo ~bandwidth_bps:1e7 ~delay_s:0.01 sender_node rx_node);
  ignore
    (Netsim.Topology.connect r_topo ~bandwidth_bps:1e7 ~delay_s:0.01 sender_node rx2_node);
  { r_engine; r_topo; sender_node; rx_node; rx2_node }

(* A receiver on [rx_node], hooked as [Session.build] hooks it. *)
let rx_receiver rig =
  let b = Netsim_env.backend rig.r_topo ~session:1 in
  let r =
    Tfmcc_core.Receiver.create ~env:(b.env rig.rx_node) ~cfg ~session:1
      ~sender:(Netsim.Node.id rig.sender_node) ()
  in
  b.on_data rig.rx_node (Tfmcc_core.Receiver.deliver_data r);
  r

(* Malformed frames dropped at validation, from the registry counter
   [tfmcc_<who>_malformed_drops_total]. *)
let malformed rig who =
  Obs.Metrics.sum_counters (Netsim.Engine.obs rig.r_engine).Obs.Sink.metrics
    ("tfmcc_" ^ who ^ "_malformed_drops_total")

let run_for rig dt =
  Netsim.Engine.run ~until:(Netsim.Engine.now rig.r_engine +. dt) rig.r_engine

let report_payload rig ~rx_id ?(session = 1) ?(rate = 50_000.) ?(rtt = 0.05)
    ?(p = 0.01) ?(x_recv = 50_000.) ?(round = 0) ?(ts = nan) ?(echo_delay = 0.)
    ?(has_loss = true) ?(leaving = false) () =
  let now = Netsim.Engine.now rig.r_engine in
  let ts = if Float.is_nan ts then now else ts in
  Netsim_env.Report
    {
      session;
      rx_id;
      ts;
      echo_ts = now -. 0.02;
      echo_delay;
      rate;
      have_rtt = true;
      rtt;
      p;
      x_recv;
      round;
      has_loss;
      leaving;
    }

let deliver_report rig payload =
  let now = Netsim.Engine.now rig.r_engine in
  Netsim.Node.deliver_local rig.sender_node
    (Netsim.Packet.make ~flow:(-1) ~size:40 ~src:99
       ~dst:(Netsim.Packet.Unicast (Netsim.Node.id rig.sender_node))
       ~created:now payload)

let started_sender ?(cfg = cfg) ?initial_rate rig =
  let b = Netsim_env.backend rig.r_topo ~session:1 in
  let snd =
    Tfmcc_core.Sender.create ~env:(b.env rig.sender_node) ~cfg ~session:1 ?initial_rate ()
  in
  b.on_report rig.sender_node (Tfmcc_core.Sender.deliver_report snd);
  Tfmcc_core.Sender.start snd ~at:0.;
  run_for rig 0.1;
  snd

let sender_fingerprint snd =
  ( Tfmcc_core.Sender.rate_bytes_per_s snd,
    Tfmcc_core.Sender.clr snd,
    Tfmcc_core.Sender.reports_received snd )

let test_sender_rejects_bad_fields () =
  let rig = make_rig () in
  let snd = started_sender ~initial_rate:100_000. rig in
  let rx = Netsim.Node.id rig.rx_node in
  (* Establish a healthy baseline first. *)
  deliver_report rig (report_payload rig ~rx_id:rx ~rate:30_000. ());
  run_for rig 0.01;
  let baseline = sender_fingerprint snd in
  let bad =
    [
      report_payload rig ~rx_id:rx ~rate:nan ();
      report_payload rig ~rx_id:rx ~rate:(-5_000.) ();
      report_payload rig ~rx_id:rx ~rtt:(-0.1) ();
      report_payload rig ~rx_id:rx ~rtt:nan ();
      report_payload rig ~rx_id:rx ~p:1.5 ();
      report_payload rig ~rx_id:rx ~p:(-0.2) ();
      report_payload rig ~rx_id:rx ~p:nan ();
      report_payload rig ~rx_id:rx ~x_recv:neg_infinity ();
      report_payload rig ~rx_id:rx ~ts:infinity ();
      report_payload rig ~rx_id:rx ~echo_delay:(-1.) ();
      report_payload rig ~rx_id:(-3) ();
      report_payload rig ~rx_id:rx ~round:(-7) ();
    ]
  in
  List.iter (deliver_report rig) bad;
  run_for rig 0.01;
  Alcotest.(check (triple (float 1e-9) (option int) int))
    "state untouched by malformed reports" baseline (sender_fingerprint snd);
  Alcotest.(check int) "every malformed report counted" (List.length bad)
    (malformed rig "sender")

let test_sender_rejects_unknown_session () =
  let rig = make_rig () in
  let snd = started_sender ~initial_rate:100_000. rig in
  deliver_report rig
    (report_payload rig ~rx_id:(Netsim.Node.id rig.rx_node) ~session:42 ());
  run_for rig 0.01;
  Alcotest.(check int) "not accepted" 0 (Tfmcc_core.Sender.reports_received snd);
  Alcotest.(check int) "counted" 1 (malformed rig "sender")

let test_sender_rejects_implausible_rounds () =
  let rig = make_rig () in
  (* stale window = ceil(clr_timeout_rounds) = 10 rounds *)
  let window = int_of_float (Float.ceil Tfmcc_core.Config.clr_timeout_rounds) in
  let snd = started_sender ~initial_rate:100_000. rig in
  while Tfmcc_core.Sender.round snd < window + 1 do
    run_for rig 0.5
  done;
  let r = Tfmcc_core.Sender.round snd in
  let rx = Netsim.Node.id rig.rx_node in
  deliver_report rig (report_payload rig ~rx_id:rx ~round:(r - window - 1) ());
  run_for rig 0.01;
  Alcotest.(check int) "stale round dropped" 1
    (malformed rig "sender");
  deliver_report rig (report_payload rig ~rx_id:rx ~round:r ());
  run_for rig 0.01;
  Alcotest.(check int) "current round accepted" 1
    (Tfmcc_core.Sender.reports_received snd)

let test_sender_fuzz_corrupted_reports () =
  let rig = make_rig () in
  let snd = started_sender ~initial_rate:100_000. rig in
  let rx = Netsim.Node.id rig.rx_node in
  deliver_report rig (report_payload rig ~rx_id:rx ~rate:30_000. ());
  run_for rig 0.01;
  let rng = Stats.Rng.create 1234 in
  let n = 300 in
  for i = 1 to n do
    let now = Netsim.Engine.now rig.r_engine in
    let valid =
      Netsim.Packet.make ~flow:(-1) ~size:40 ~src:rx
        ~dst:(Netsim.Packet.Unicast (Netsim.Node.id rig.sender_node))
        ~created:now
        (report_payload rig ~rx_id:rx ~round:(Tfmcc_core.Sender.round snd) ())
    in
    Netsim.Node.deliver_local rig.sender_node
      (Netsim_env.corrupt_packet rng valid);
    if i mod 50 = 0 then run_for rig 0.05;
    let rate = Tfmcc_core.Sender.rate_bytes_per_s snd in
    if not (Float.is_finite rate && rate > 0.) then
      Alcotest.failf "rate went bad after %d corrupted reports: %f" i rate
  done;
  run_for rig 0.1;
  Alcotest.(check int) "every corrupted report rejected" n
    (malformed rig "sender");
  Alcotest.(check bool) "rate finite and positive" true
    (let r = Tfmcc_core.Sender.rate_bytes_per_s snd in
     Float.is_finite r && r > 0.)

let test_receiver_rejects_bad_data () =
  let rig = make_rig () in
  let r = rx_receiver rig in
  Tfmcc_core.Receiver.join r;
  let deliver_data ?(rate = 50_000.) ?(round_duration = 1.) ?(ts = nan)
      ?(max_rtt = 0.5) ?(seq = 0) () =
    let now = Netsim.Engine.now rig.r_engine in
    let ts = if Float.is_nan ts then now else ts in
    Netsim.Node.deliver_local rig.rx_node
      (Netsim.Packet.make ~flow:1 ~size:1000
         ~src:(Netsim.Node.id rig.sender_node)
         ~dst:(Netsim.Packet.Multicast 1) ~created:now
         (Netsim_env.Data
            {
              session = 1;
              seq;
              ts;
              rate;
              round = 0;
              round_duration;
              max_rtt;
              clr = -1;
              in_slowstart = false;
              echo = None;
              fb = None;
              app = -1;
            }))
  in
  deliver_data ();
  run_for rig 0.01;
  Alcotest.(check int) "valid data accepted" 1 (Tfmcc_core.Receiver.packets_received r);
  deliver_data ~rate:nan ();
  deliver_data ~rate:(-100.) ();
  deliver_data ~round_duration:(-1.) ();
  deliver_data ~ts:infinity ();
  deliver_data ~max_rtt:nan ();
  deliver_data ~seq:(-4) ();
  run_for rig 0.01;
  Alcotest.(check int) "malformed data not counted as received" 1
    (Tfmcc_core.Receiver.packets_received r);
  Alcotest.(check int) "all dropped at validation" 6
    (malformed rig "receiver")

let test_receiver_fuzz_corrupted_data () =
  let rig = make_rig () in
  let r = rx_receiver rig in
  Tfmcc_core.Receiver.join r;
  let rng = Stats.Rng.create 99 in
  for seq = 0 to 299 do
    let now = Netsim.Engine.now rig.r_engine in
    let valid =
      Netsim.Packet.make ~flow:1 ~size:1000
        ~src:(Netsim.Node.id rig.sender_node)
        ~dst:(Netsim.Packet.Multicast 1) ~created:now
        (Netsim_env.Data
           {
             session = 1;
             seq;
             ts = now;
             rate = 50_000.;
             round = 0;
             round_duration = 1.;
             max_rtt = 0.5;
             clr = -1;
             in_slowstart = false;
             echo = None;
             fb = None;
             app = -1;
           })
    in
    Netsim.Node.deliver_local rig.rx_node (Netsim_env.corrupt_packet rng valid);
    if seq mod 50 = 0 then run_for rig 0.01
  done;
  run_for rig 0.1;
  (* Wrong-session corruptions are invisible to this receiver; everything
     else must have been rejected at validation, not absorbed. *)
  Alcotest.(check int) "no corrupted packet accepted" 0
    (Tfmcc_core.Receiver.packets_received r);
  Alcotest.(check bool) "drops counted" true
    (malformed rig "receiver" > 0);
  let p = Tfmcc_core.Receiver.loss_event_rate r in
  Alcotest.(check bool) "loss rate still sane" true (Float.is_finite p && p >= 0.)

(* ------------------------------------------- starvation, crash, failover *)

let test_starvation_decay_to_floor_and_recovery () =
  let rig = make_rig () in
  let snd = started_sender ~initial_rate:100_000. rig in
  let rx = Netsim.Node.id rig.rx_node in
  let rx2 = Netsim.Node.id rig.rx2_node in
  deliver_report rig (report_payload rig ~rx_id:rx ~rate:20_000. ());
  run_for rig 0.01;
  Alcotest.(check (option int)) "CLR elected" (Some rx) (Tfmcc_core.Sender.clr snd);
  (* Total silence: no receiver reports at all.  The sender must starve,
     drop the dead CLR, and decay to the one-packet floor.  Rounds (and
     with them the decay steps) stretch as the rate falls — the last
     halvings take hundreds of simulated seconds each. *)
  run_for rig 700.;
  let floor = float_of_int cfg.Tfmcc_core.Config.packet_size /. 64. in
  Alcotest.(check bool) "starved" true (Tfmcc_core.Sender.is_starved snd);
  Alcotest.(check int) "one starvation episode" 1
    (Tfmcc_core.Sender.feedback_starvations snd);
  Alcotest.(check (option int)) "dead CLR dropped" None (Tfmcc_core.Sender.clr snd);
  Alcotest.(check int) "counted as timeout" 1 (Tfmcc_core.Sender.clr_timeouts snd);
  Alcotest.(check (float 1e-6)) "rate at the floor" floor
    (Tfmcc_core.Sender.rate_bytes_per_s snd);
  (* Heal: a surviving receiver reports.  Starvation must end at once,
     the reporter become the failover CLR, and the rate climb again. *)
  deliver_report rig
    (report_payload rig ~rx_id:rx2 ~rate:50_000.
       ~round:(Tfmcc_core.Sender.round snd) ());
  run_for rig 0.01;
  Alcotest.(check bool) "recovered from starvation" false
    (Tfmcc_core.Sender.is_starved snd);
  Alcotest.(check (option int)) "failover CLR installed" (Some rx2)
    (Tfmcc_core.Sender.clr snd);
  Alcotest.(check int) "failover counted" 1 (Tfmcc_core.Sender.clr_failovers snd);
  (* Bounded recovery: with CLR feedback flowing the capped increase must
     lift the rate well off the floor within a few RTTs. *)
  for _ = 1 to 50 do
    run_for rig 0.1;
    deliver_report rig
      (report_payload rig ~rx_id:rx2 ~rate:50_000.
         ~round:(Tfmcc_core.Sender.round snd) ())
  done;
  run_for rig 0.01;
  let rate = Tfmcc_core.Sender.rate_bytes_per_s snd in
  Alcotest.(check bool)
    (Printf.sprintf "rate recovered (got %.1f)" rate)
    true (rate > 10. *. floor)

let test_starvation_report_prevents () =
  let rig = make_rig () in
  let snd = started_sender ~initial_rate:100_000. rig in
  let rx = Netsim.Node.id rig.rx_node in
  deliver_report rig (report_payload rig ~rx_id:rx ~rate:20_000. ());
  run_for rig 0.01;
  (* Keep the CLR talking: starvation must never trigger. *)
  for _ = 1 to 60 do
    run_for rig 0.5;
    deliver_report rig
      (report_payload rig ~rx_id:rx ~rate:20_000.
         ~round:(Tfmcc_core.Sender.round snd) ())
  done;
  Alcotest.(check int) "no starvation with live feedback" 0
    (Tfmcc_core.Sender.feedback_starvations snd);
  Alcotest.(check (option int)) "CLR kept" (Some rx) (Tfmcc_core.Sender.clr snd)

let test_graceful_leave_failover () =
  let rig = make_rig () in
  let snd = started_sender ~initial_rate:100_000. rig in
  let rx = Netsim.Node.id rig.rx_node in
  let rx2 = Netsim.Node.id rig.rx2_node in
  deliver_report rig (report_payload rig ~rx_id:rx ~rate:20_000. ());
  run_for rig 0.01;
  deliver_report rig (report_payload rig ~rx_id:rx ~leaving:true ());
  run_for rig 0.01;
  Alcotest.(check (option int)) "CLR gone" None (Tfmcc_core.Sender.clr snd);
  Alcotest.(check int) "no failover yet" 0 (Tfmcc_core.Sender.clr_failovers snd);
  deliver_report rig (report_payload rig ~rx_id:rx2 ~rate:25_000. ());
  run_for rig 0.01;
  Alcotest.(check (option int)) "replacement installed" (Some rx2)
    (Tfmcc_core.Sender.clr snd);
  Alcotest.(check int) "failover completed" 1 (Tfmcc_core.Sender.clr_failovers snd)

(* A loss-free receiver must volunteer a report when the sender advertises
   clr = -1 (lost CLR / starvation recovery), and stay silent otherwise. *)
let test_receiver_volunteers_on_lost_clr () =
  let volunteer ~clr =
    let rig = make_rig () in
    let r = rx_receiver rig in
    Tfmcc_core.Receiver.join r;
    let data ~seq ~round =
      let now = Netsim.Engine.now rig.r_engine in
      Netsim.Node.deliver_local rig.rx_node
        (Netsim.Packet.make ~flow:1 ~size:1000
           ~src:(Netsim.Node.id rig.sender_node)
           ~dst:(Netsim.Packet.Multicast 1) ~created:now
           (Netsim_env.Data
              {
                session = 1;
                seq;
                ts = now;
                rate = 50_000.;
                round;
                round_duration = 0.5;
                max_rtt = 0.5;
                clr;
                in_slowstart = false;
                echo = None;
                fb = None;
                app = -1;
              }))
    in
    data ~seq:0 ~round:0;
    run_for rig 0.05;
    data ~seq:1 ~round:1;
    run_for rig 1.0;
    Tfmcc_core.Receiver.reports_sent r
  in
  Alcotest.(check bool) "volunteers when clr = -1" true (volunteer ~clr:(-1) >= 1);
  Alcotest.(check int) "silent when another CLR exists" 0 (volunteer ~clr:12345)

(* Partition the CLR mid-slowstart on a real forwarded topology (not a
   locally-delivered rig): the sender must notice the silence, decay,
   drop the dead CLR, and — once the partition heals — fail over and
   recover, all within bounded feedback rounds. *)
let test_clr_partition_mid_slowstart () =
  let open Tfmcc_core in
  let open Experiments in
  let s = Scenario.star ~seed:5 ~link_bps:5e6 ~link_delays:[| 0.02 |] () in
  let sc = s.Scenario.s_sc in
  let engine = sc.Scenario.engine in
  let f = Netsim.Fault.create engine in
  Session.start s.Scenario.s_session ~at:0.;
  let snd = Session.sender s.Scenario.s_session in
  let t_partition = 5.0 and t_heal = 15.0 in
  let pre_rate = ref 0. and outage_rate = ref infinity in
  let partitioned = ref (-1) in
  ignore
    (Netsim.Engine.at engine ~time:t_partition (fun () ->
         Alcotest.(check bool) "mid-slowstart at partition time" true
           (Sender.in_slowstart snd);
         match Sender.clr snd with
         | None -> Alcotest.fail "no CLR elected before the partition"
         | Some rx ->
             partitioned := rx;
             pre_rate := Sender.rate_bytes_per_s snd;
             let idx = ref (-1) in
             Array.iteri
               (fun i n -> if Netsim.Node.id n = rx then idx := i)
               s.Scenario.s_rx_nodes;
             if !idx < 0 then Alcotest.fail "CLR is not a star receiver";
             let down, up = s.Scenario.s_rx_links.(!idx) in
             Netsim.Fault.partition f ~links:[ down; up ]
               ~from_:(t_partition +. 0.001) ~until:t_heal));
  (* Late in the outage: cutting the CLR's link silenced the session's
     only feedback source, so the sender must have starved, decayed its
     rate, and dropped the dead CLR so the data header advertises
     clr = -1. *)
  ignore
    (Netsim.Engine.at engine ~time:(t_heal -. 0.5) (fun () ->
         outage_rate := Sender.rate_bytes_per_s snd;
         Alcotest.(check bool) "starved during the partition" true
           (Sender.is_starved snd);
         Alcotest.(check bool) "rate decayed" true
           (!outage_rate < 0.75 *. !pre_rate);
         Alcotest.(check (option int)) "dead CLR dropped" None
           (Sender.clr snd);
         Alcotest.(check bool) "timeout counted" true
           (Sender.clr_timeouts snd >= 1)));
  Scenario.run_until sc (t_heal +. 10.);
  (* Bounded recovery: within a few feedback rounds of the heal a
     receiver volunteered, the failover completed, starvation ended and
     the rate climbed well off the decayed floor. *)
  Alcotest.(check bool) "starvation over after heal" false
    (Sender.is_starved snd);
  Alcotest.(check bool) "failover completed" true (Sender.clr_failovers snd >= 1);
  (match Sender.clr snd with
  | None -> Alcotest.fail "no CLR after recovery"
  | Some _ -> ());
  let rate = Sender.rate_bytes_per_s snd in
  Alcotest.(check bool)
    (Printf.sprintf "rate recovered (outage %.0f, now %.0f B/s)" !outage_rate
       rate)
    true
    (rate > 4. *. !outage_rate)

let () =
  Alcotest.run "faults"
    [
      ( "netsim",
        [
          Alcotest.test_case "partition" `Quick test_partition_blocks_both_directions;
          Alcotest.test_case "duplicate" `Quick test_duplicate_injector;
          Alcotest.test_case "corrupt" `Quick test_corrupt_injector_replaces;
          Alcotest.test_case "reorder" `Quick test_reorder_injector;
          Alcotest.test_case "injector order" `Quick test_injector_order;
          Alcotest.test_case "churn" `Quick test_crash_counter;
          Alcotest.test_case "engine every" `Quick test_engine_every;
        ] );
      ( "validation",
        [
          Alcotest.test_case "sender rejects bad fields" `Quick test_sender_rejects_bad_fields;
          Alcotest.test_case "sender rejects unknown session" `Quick test_sender_rejects_unknown_session;
          Alcotest.test_case "sender rejects bad rounds" `Quick test_sender_rejects_implausible_rounds;
          Alcotest.test_case "sender survives fuzzed reports" `Quick test_sender_fuzz_corrupted_reports;
          Alcotest.test_case "receiver rejects bad data" `Quick test_receiver_rejects_bad_data;
          Alcotest.test_case "receiver survives fuzzed data" `Quick test_receiver_fuzz_corrupted_data;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "starvation decay + recovery" `Quick
            test_starvation_decay_to_floor_and_recovery;
          Alcotest.test_case "live feedback prevents starvation" `Quick
            test_starvation_report_prevents;
          Alcotest.test_case "graceful leave failover" `Quick test_graceful_leave_failover;
          Alcotest.test_case "volunteer on lost CLR" `Quick
            test_receiver_volunteers_on_lost_clr;
          Alcotest.test_case "CLR partition mid-slowstart" `Quick
            test_clr_partition_mid_slowstart;
        ] );
    ]
