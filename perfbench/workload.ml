(* The four benchmark workloads: what each runs, through which entry
   point, and the mirror runs the trace compares it with.

   One run of one variant happens in one process and returns a flat list
   of named numbers ([fields]); the parent process in main.ml aggregates
   them.
   Variants:
   - [Entry]: the workload through the entry point users call
     ([Scenario.star], [Rt.Harness.run], [Golden.compute]).  The
     end-to-end metrics come from this run.
   - [Setup] (sweep-golden only): the entry run's set-up alone.
   - [Mirror] (rt workloads only): the same sessions rebuilt with
     {!Build.session}, untraced, default sink, alone in its process.
   - [Traced]: the mirror with every layer boundary in a span, run in
     lockstep with three twins (see {!lockstep}); on sweep-golden the
     sweep with each task and experiment timed. *)

open Tfmcc_core
module Scenario = Experiments.Scenario
module Registry = Experiments.Registry

type t = Sim_fanout | Rt_fleet | Rt_chaos | Sweep_golden

let all = [ Sim_fanout; Rt_fleet; Rt_chaos; Sweep_golden ]

let name = function
  | Sim_fanout -> "sim-fanout"
  | Rt_fleet -> "rt-fleet"
  | Rt_chaos -> "rt-chaos"
  | Sweep_golden -> "sweep-golden"

let of_name s = List.find_opt (fun w -> name w = s) all

type variant = Entry | Setup | Mirror | Traced

let variant_name = function
  | Entry -> "entry"
  | Setup -> "setup"
  | Mirror -> "mirror"
  | Traced -> "traced"

let variant_of_name s =
  List.find_opt (fun v -> variant_name v = s) [ Entry; Setup; Mirror; Traced ]

(* The variants one trace cycle runs, in order.  The solo mirror is
   there to be held against [Rt.Harness.run]: both run alone in a fresh
   process, and the difference is the harness's supervision. *)
let trace_variants = function
  | Sim_fanout | Sweep_golden -> [ Entry; Traced ]
  | Rt_fleet | Rt_chaos -> [ Entry; Mirror; Traced ]

type size = {
  sim_receivers : int;
  sim_seconds : float;  (* simulated seconds *)
  fleet_sessions : int;
  fleet_receivers : int;
  fleet_seconds : float;  (* loop-seconds *)
  chaos_sessions : int;
  chaos_receivers : int;
  chaos_seconds : float;
  sweep_ids : string list option;  (* [None]: every [Registry.all] experiment *)
}

let standard =
  {
    sim_receivers = 512;
    sim_seconds = 60.;
    fleet_sessions = 1000;
    fleet_receivers = 4;
    fleet_seconds = 8.;
    chaos_sessions = 200;
    chaos_receivers = 4;
    chaos_seconds = 20.;
    sweep_ids = None;
  }

let smoke =
  {
    sim_receivers = 16;
    sim_seconds = 20.;
    fleet_sessions = 20;
    fleet_receivers = 2;
    fleet_seconds = 5.;
    chaos_sessions = 20;
    chaos_receivers = 4;
    chaos_seconds = 20.;
    sweep_ids = Some [ "fig04"; "fig17"; "rob03" ];
  }

type fields = (string * float) list

let secs ns = float_of_int ns /. 1e9

let fi = float_of_int

(* Peak resident set of this process so far, MB ([VmHWM]). *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                fi kb /. 1024.)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* Allocation and GC activity over [f]: minor words read through the
   unboxed external right around the call, the [quick_stat] records
   (which allocate) outside it. *)
let measured f =
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = Span.now_ns () in
  let r = f () in
  let t1 = Span.now_ns () in
  let w1 = Gc.minor_words () in
  let g1 = Gc.quick_stat () in
  ( r,
    [
      ("wall_s", secs (t1 - t0));
      ("minor_words", w1 -. w0);
      ("promoted_words", g1.Gc.promoted_words -. g0.Gc.promoted_words);
      ("major_collections", fi (g1.Gc.major_collections - g0.Gc.major_collections));
    ] )

let count_if p l = List.fold_left (fun a x -> if p x then a + 1 else a) 0 l

(* ------------------------------------------------------------ sim-fanout *)

let sim_link_bps = 1e6

(* Per-receiver delays (10-50 ms) and hub->receiver Bernoulli loss
   (0.05-0.5%), from a stream of their own so they do not alias the
   engine's master stream, which starts from the same seed. *)
let sim_inputs ~seed n =
  let rng = Stats.Rng.create (seed + 0x5eed) in
  let delays = Array.init n (fun _ -> 0.010 +. Stats.Rng.float rng 0.040) in
  let losses = Array.init n (fun _ -> 0.0005 +. Stats.Rng.float rng 0.0045) in
  (delays, losses)

let sim_counts engine session =
  let rx = Session.receivers session and snd = Session.sender session in
  let received = List.fold_left (fun a r -> a + Receiver.packets_received r) 0 rx in
  let reports = Sender.reports_received snd in
  ( received + reports,
    [
      ("count.events", fi (Netsim.Engine.events_processed engine));
      ("count.packets_sent", fi (Sender.packets_sent snd));
      ("count.reports_received", fi reports);
      ("count.packets_received", fi received);
    ] )

(* Units of work: every receiver and the sender.  A receiver fails when
   its end state breaks a pure invariant predicate, the sender when its
   rate leaves [x_min, max_rate]. *)
let sim_outcome session =
  let cfg = Config.default in
  let passes = function Ok () -> true | Error _ -> false in
  let rx_ok r =
    passes (Check.Invariant.check_loss_event_rate (Receiver.loss_event_rate r))
    && passes (Check.Invariant.check_rtt (Receiver.rtt r))
    && passes (Check.Invariant.check_x_recv (Receiver.x_recv r))
  in
  let rxs = Session.receivers session in
  let snd_ok =
    passes
      (Check.Invariant.check_rate_bounds
         ~x_min:(fi cfg.Config.packet_size /. 64.)
         ~x_max:cfg.Config.max_rate
         (Sender.rate_bytes_per_s (Session.sender session)))
  in
  let units = List.length rxs + 1 in
  let ok = count_if rx_ok rxs + if snd_ok then 1 else 0 in
  [ ("units", fi units); ("ok_units", fi ok); ("errors", fi (units - ok)) ]

let sim_entry ~seed size =
  let delays, losses = sim_inputs ~seed size.sim_receivers in
  let t0 = Span.now_ns () in
  let st =
    Scenario.star ~seed ~obs:(Obs.Sink.create ()) ~link_bps:sim_link_bps
      ~link_delays:delays ~link_losses:losses ()
  in
  Session.start st.Scenario.s_session ~at:0.;
  let setup = secs (Span.now_ns () - t0) in
  let (), m = measured (fun () -> Scenario.run_until st.Scenario.s_sc size.sim_seconds) in
  let pkts, counts = sim_counts st.Scenario.s_sc.Scenario.engine st.Scenario.s_session in
  (("setup_s", setup) :: ("pkts", fi pkts) :: m) @ counts
  @ sim_outcome st.Scenario.s_session

(* A mirror, built and ready to run: [advance t] runs it up to time [t]
   (simulated or loop seconds, from 0), [root] is the layer its event
   loop is charged to, [result] reads its packets and counts. *)
type mirror = {
  advance : float -> unit;
  until : float;
  root : int;
  sessions : Session.t list;
  result : unit -> int * fields;
}

(* [Scenario.star] rebuilt around {!Build.session}: same nodes, links and
   loss-model splits in the same order (uplink 10x the receiver links,
   5 ms, 50-packet queues), then the session and the monitor taps. *)
let sim_mirror ?tracer ~seed ~obs size =
  let n = size.sim_receivers in
  let delays, losses = sim_inputs ~seed n in
  let sc = Scenario.base ~seed ~obs () in
  let topo = sc.Scenario.topo in
  let sender = Netsim.Topology.add_node topo in
  let hub = Netsim.Topology.add_node topo in
  ignore
    (Netsim.Topology.connect topo ~queue_capacity:50 ~bandwidth_bps:(10. *. sim_link_bps)
       ~delay_s:0.005 sender hub);
  let rng = Netsim.Engine.rng sc.Scenario.engine in
  let rx_nodes =
    Array.init n (fun i ->
        let rx = Netsim.Topology.add_node topo in
        let loss_ab = Netsim.Loss_model.bernoulli ~rng:(Stats.Rng.split rng) ~p:losses.(i) in
        ignore
          (Netsim.Topology.connect topo ~queue_capacity:50 ~loss_ab
             ~bandwidth_bps:sim_link_bps ~delay_s:delays.(i) hub rx);
        rx)
  in
  let session =
    Build.session
      (Build.sim topo ~session:Scenario.tfmcc_flow)
      ?tracer ~cfg:Config.default ~session:Scenario.tfmcc_flow ~sender
      ~receivers:(Array.to_list rx_nodes) ()
  in
  Array.iter
    (fun nd ->
      Netsim.Monitor.watch_node_flow sc.Scenario.monitor nd ~flow:Scenario.tfmcc_flow)
    rx_nodes;
  Session.start session ~at:0.;
  let engine = sc.Scenario.engine in
  {
    advance = (fun t -> Netsim.Engine.run ~until:t engine);
    until = size.sim_seconds;
    root = Span.netsim;
    sessions = [ session ];
    result = (fun () -> sim_counts engine session);
  }

(* ------------------------------------------------------------ rt-fleet/-chaos *)

(* The [tfmcc-sim loopback] / [chaos-rt] defaults: turbo clock, loopback
   fabric, 2% loss, 25 ms delay, 5 ms jitter, 2 s warmup, rtt_initial
   0.15 s; rt-chaos adds the [chaos-rt] default plan. *)
let rt_config w ~seed size =
  let base =
    {
      Rt.Harness.default with
      Rt.Harness.cfg = { Config.default with Config.rtt_initial = 0.15 };
      seed;
    }
  in
  match w with
  | Rt_fleet ->
      {
        base with
        Rt.Harness.sessions = size.fleet_sessions;
        receivers = size.fleet_receivers;
        duration = size.fleet_seconds;
      }
  | Rt_chaos ->
      {
        base with
        Rt.Harness.sessions = size.chaos_sessions;
        receivers = size.chaos_receivers;
        duration = size.chaos_seconds;
        chaos =
          [
            Rt.Chaos.Flap { down_at = 7.; up_at = 7.4 };
            Rt.Chaos.Churn
              {
                sessions = [];
                fraction = 0.2;
                from_ = 4.;
                until = 10.;
                period = 1.5;
                down_for = 0.6;
              };
          ];
        faults = [ Rt.Harness.Partition_clr { at = 3.; until = 6. } ];
      }
  | Sim_fanout | Sweep_golden -> invalid_arg "Workload.rt_config: not an rt workload"

(* Firings of the harness's stall-probe chain ([Loop.every] from the
   epoch, inclusive of the final instant), which the mirror does not
   run. *)
let probe_firings (c : Rt.Harness.config) =
  int_of_float (Float.floor (c.Rt.Harness.duration /. c.Rt.Harness.supervise.Rt.Harness.probe_interval))

let rt_counts ~sent ~delivered ~lost ~blocked ~timers ~converged =
  ( delivered,
    [
      ("count.frames_sent", fi sent);
      ("count.frames_delivered", fi delivered);
      ("count.frames_lost", fi lost);
      ("count.frames_blocked", fi blocked);
      ("count.timers", fi timers);
      ("count.converged", fi converged);
    ] )

(* Units of work: sessions.  One that ends in [Par.Ok] and converged
   counts as ok; one that crashed, failed or stalled as an error, as do
   frames the codec refused and exceptions that reached the loop. *)
let rt_entry w ~seed size =
  let c = rt_config w ~seed size in
  let cfg = c.Rt.Harness.cfg in
  let r, m = measured (fun () -> Rt.Harness.run c) in
  let call_s = List.assoc "wall_s" m in
  let ok =
    count_if
      (function _, Par.Ok s -> Rt.Harness.converged s ~cfg | _ -> false)
      r.Rt.Harness.outcomes
  in
  let crashed = count_if (function _, Par.Ok _ -> false | _ -> true) r.Rt.Harness.outcomes in
  let errors =
    crashed + r.Rt.Harness.loop_exceptions + r.Rt.Harness.decode_errors
    + r.Rt.Harness.encode_drops
  in
  let pkts, counts =
    rt_counts ~sent:r.Rt.Harness.frames_sent ~delivered:r.Rt.Harness.frames_delivered
      ~lost:r.Rt.Harness.frames_lost ~blocked:r.Rt.Harness.frames_blocked
      ~timers:(r.Rt.Harness.timers_fired - probe_firings c)
      ~converged:ok
  in
  [
    ("setup_s", call_s -. r.Rt.Harness.wall_s);
    ("wall_s", r.Rt.Harness.wall_s);
    ("pkts", fi pkts);
    ("units", fi c.Rt.Harness.sessions);
    ("ok_units", fi ok);
    ("errors", fi errors);
  ]
  @ List.filter (fun (k, _) -> k <> "wall_s") m
  @ counts

(* The end state [Rt.Harness] reports for a session, for its
   [converged] predicate. *)
let rt_stat sid s =
  let snd = Session.sender s and rxs = Session.receivers s in
  let mean f = List.fold_left (fun a r -> a +. f r) 0. rxs /. fi (List.length rxs) in
  {
    Rt.Harness.session = sid;
    rate = Sender.rate_bytes_per_s snd;
    packets = Sender.packets_sent snd;
    reports = Sender.reports_received snd;
    starved = Sender.is_starved snd;
    loss_rate = mean Receiver.loss_event_rate;
    rtt = mean Receiver.rtt;
    rtt_measured = List.for_all Receiver.has_rtt_measurement rxs;
    failovers = Sender.clr_failovers snd;
    starvations = Sender.feedback_starvations snd;
  }

(* [Rt.Harness.run] without its supervision: the same loop, fabric,
   endpoint order, staggered starts, CLR partition and chaos plan, with
   the sessions built by {!Build.session}. *)
let rt_mirror ?tracer w ~seed ~obs size =
  let c = rt_config w ~seed size in
  let epoch = c.Rt.Harness.epoch in
  let loop = Rt.Loop.create ~mode:c.Rt.Harness.mode ~epoch ~obs ~seed:c.Rt.Harness.seed () in
  let net = Rt.Net.create loop ~impair:c.Rt.Harness.impair () in
  let sessions =
    List.init c.Rt.Harness.sessions (fun i ->
        let sid = i + 1 in
        let sender = Rt.Net.endpoint net ~session:sid in
        let receivers = List.init c.Rt.Harness.receivers (fun _ -> Rt.Net.endpoint net ~session:sid) in
        let s =
          Build.session Build.rt ?tracer ~cfg:c.Rt.Harness.cfg ~session:sid ~sender ~receivers ()
        in
        Session.start s ~at:(epoch +. (0.01 *. fi (i mod 128)));
        s)
  in
  let blocked = ref [] in
  List.iter
    (function
      | Rt.Harness.Partition_clr { at; until } ->
          let arm time f = ignore (Rt.Loop.at loop ~time:(epoch +. time) f : Env.timer) in
          arm at (fun () ->
              List.iter
                (fun s ->
                  match Sender.clr (Session.sender s) with
                  | Some node ->
                      Rt.Net.block net node;
                      blocked := node :: !blocked
                  | None -> ())
                sessions);
          arm until (fun () ->
              List.iter (Rt.Net.unblock net) !blocked;
              blocked := [])
      | Rt.Harness.Kill_session _ | Rt.Harness.Kill_session_every _ | Rt.Harness.Stop_sender _ ->
          invalid_arg "Workload.rt_mirror: unsupported fault")
    c.Rt.Harness.faults;
  if c.Rt.Harness.chaos <> [] then ignore (Rt.Chaos.apply net c.Rt.Harness.chaos : Rt.Chaos.t);
  let result () =
    let converged =
      count_if
        (fun (sid, s) -> Rt.Harness.converged (rt_stat sid s) ~cfg:c.Rt.Harness.cfg)
        (List.mapi (fun i s -> (i + 1, s)) sessions)
    in
    rt_counts ~sent:(Rt.Net.frames_sent net) ~delivered:(Rt.Net.frames_delivered net)
      ~lost:(Rt.Net.frames_lost net)
      ~blocked:(Rt.Net.partition_drops net + Rt.Net.flap_drops net)
      ~timers:(Rt.Loop.timers_fired loop) ~converged
  in
  {
    advance = (fun t -> Rt.Loop.run ~until:(epoch +. t) loop);
    until = c.Rt.Harness.duration;
    root = Span.rt_loop;
    sessions;
    result;
  }

(* ------------------------------------------------------------ traced runs *)

(* Replays the codec on the messages the traced run sent: mean ns per
   [Wire.encode_*_into] and per [Wire.decode], median of five passes.
   Messages the encoder refuses (the fabric drops those too) are left
   out. *)
let wire_replay (tr : Span.t) =
  let encoded =
    List.filter_map
      (fun msg ->
        match msg with
        | Wire.Data d -> ( try Some (msg, Wire.encode_data d) with Invalid_argument _ -> None)
        | Wire.Report r -> ( try Some (msg, Wire.encode_report r) with Invalid_argument _ -> None))
      (Array.to_list (Array.sub tr.Span.msgs 0 tr.Span.n_msgs))
  in
  let n = List.length encoded in
  if n = 0 then (0., 0.)
  else begin
    let msgs = Array.of_list (List.map fst encoded) in
    let frames = Array.of_list (List.map snd encoded) in
    let buf = Bytes.make (max Wire.encoded_data_size Wire.encoded_report_size) '\000' in
    let encode = function
      | Wire.Data d -> ignore (Wire.encode_data_into buf d : int)
      | Wire.Report r -> ignore (Wire.encode_report_into buf r : int)
    in
    let per_item f =
      let pass () =
        let t0 = Span.now_ns () in
        f ();
        fi (Span.now_ns () - t0) /. fi n
      in
      let xs = List.sort compare (List.init 5 (fun _ -> pass ())) in
      List.nth xs 2
    in
    let enc = per_item (fun () -> Array.iter encode msgs) in
    let dec =
      per_item (fun () -> Array.iter (fun b -> ignore (Wire.decode b : (Wire.msg, string) result)) frames)
    in
    (enc, dec)
  end

let receiver_suppression sessions =
  let rxs = List.concat_map Session.receivers sessions in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rxs in
  let suppressed = sum Receiver.timers_suppressed and reports = sum Receiver.reports_sent in
  if suppressed + reports = 0 then 0. else fi suppressed /. fi (suppressed + reports)

(* Per-layer numbers of one traced run; [span_ns] is the tracer's own
   cost per span, taken out of the enclosing layers' self time. *)
let layer_fields (tr : Span.t) (m : mirror) ~span_ns ~pkts ~counts =
  let p = fi (max pkts 1) in
  let ns l = Span.self_ns tr ~span_ns l /. p and words l = tr.Span.self_words.(l) /. p in
  let per_pkt k = (match List.assoc_opt k counts with Some v -> v | None -> 0.) /. p in
  let enc, dec = wire_replay tr in
  let root = Span.names.(m.root) in
  [
    (root ^ ".self_ns_per_pkt", ns m.root);
    (root ^ ".words_per_pkt", words m.root);
    ("netsim.engine.events_per_pkt", per_pkt "count.events");
    ("rt.loop.timers_per_pkt", per_pkt "count.timers");
    ("tfmcc.receiver.self_ns_per_pkt", ns Span.receiver);
    ("tfmcc.receiver.words_per_pkt", words Span.receiver);
    ("tfmcc.receiver.suppressed_frac", receiver_suppression m.sessions);
    ("tfmcc.sender.self_ns_per_pkt", ns Span.sender);
    ("tfmcc.sender.words_per_pkt", words Span.sender);
    ("transport.send.self_ns_per_pkt", ns Span.send);
    ("transport.send.sends_per_pkt", fi tr.Span.calls.(Span.send) /. p);
    ("transport.send.words_per_pkt", words Span.send);
    ("tfmcc.wire.encode_ns", enc);
    ("tfmcc.wire.decode_ns", dec);
  ]

(* One mirror on its own, start to end. *)
let solo m =
  let t0 = Span.now_ns () in
  m.advance m.until;
  let wall = secs (Span.now_ns () - t0) in
  let pkts, counts = m.result () in
  ("wall_s", wall) :: ("pkts", fi pkts) :: counts

let slices = 200

(* The traced run and three twins of the same seed, advanced in
   lockstep: each of [slices] time steps runs all four, in rotating
   order.  A shared host's speed drifts by tens of percent within
   seconds, so
   runs compared in separate processes, or one after the other, mostly
   measure the drift; slices of a few milliseconds put the four under
   the same conditions.  The twins: untraced with the default sink,
   untraced with the null sink, and traced through a tracer that does
   no measuring (same wrappers and spans, no clock or counter reads).
   Compared:
   - the tracer's own cost per span ([trace.span_overhead_ns]): traced
     minus non-measuring wall, over the nested spans;
   - [trace.overhead_frac]: traced wall over untraced wall, minus 1;
   - [trace.reconcile_err]: |sum of every layer's self time, the
     tracer's own cost taken out, - untraced wall| / untraced wall —
     what the wrappers themselves perturb;
   - [obs.ns_per_pkt]: default-sink wall minus null-sink wall. *)
let lockstep build =
  let alloc = Span.words_per_span () in
  if alloc > 0. then
    Printf.eprintf "perfbench: warning: the span tracer allocates %.2f words per span\n%!" alloc;
  let tr = Span.create () and hollow = Span.create ~measure:false () in
  let runs =
    [|
      build None ~obs:(Obs.Sink.create ());
      build None ~obs:Obs.Sink.null;
      build (Some tr) ~obs:(Obs.Sink.create ());
      build (Some hollow) ~obs:(Obs.Sink.create ());
    |]
  in
  let tracers = [| None; None; Some tr; Some hollow |] in
  let n = Array.length runs in
  let wall = Array.make n 0 in
  for k = 1 to slices do
    for j = 0 to n - 1 do
      let i = (j + k) mod n in
      let m = runs.(i) in
      let t = m.until *. fi k /. fi slices in
      let t0 = Span.now_ns () in
      (match tracers.(i) with
      | None -> m.advance t
      | Some x -> Span.run x m.root (fun () -> m.advance t));
      wall.(i) <- wall.(i) + (Span.now_ns () - t0)
    done
  done;
  let pkts, counts = runs.(0).result () in
  let mismatches =
    count_if (fun m -> snd (m.result ()) <> counts) (List.tl (Array.to_list runs))
  in
  let untraced = fi wall.(0) in
  let span_ns = fi (wall.(2) - wall.(3)) /. fi (max 1 (Span.nested_spans tr)) in
  let self = Array.fold_left ( +. ) 0. (Array.init Span.n_layers (Span.self_ns tr ~span_ns)) in
  (("wall_s", untraced /. 1e9) :: ("pkts", fi pkts) :: counts)
  @ [
      ("trace.count_mismatches", fi mismatches);
      ("trace.span_overhead_ns", span_ns);
      ("trace.overhead_frac", (fi wall.(2) /. untraced) -. 1.);
      ("trace.reconcile_err", Float.abs (self -. untraced) /. untraced);
      ("obs.ns_per_pkt", fi (wall.(0) - wall.(1)) /. fi (max pkts 1));
    ]
  @ layer_fields tr runs.(2) ~span_ns ~pkts ~counts

(* ------------------------------------------------------------ sweep-golden *)

let sweep_experiments size =
  match size.sweep_ids with
  | None -> Registry.all
  | Some ids -> List.filter (fun e -> List.mem e.Registry.id ids) Registry.all

(* Two domains, as on the 2-core reference VM, never more than the
   host recommends. *)
let sweep_jobs () = max 1 (min 2 (Domain.recommended_domain_count ()))

let golden_file = Filename.concat "test" (Filename.concat "golden" "digests.txt")

(* sweep-golden ignores the run's seed: its input is the golden sweep,
   43 experiments at the one seed the checked-in digests exist for, so
   every run checks every digest. *)
let golden_seed = 42

(* Ids whose digest differs from the checked-in one; an unreadable file
   fails every experiment. *)
let mismatched digests =
  match In_channel.with_open_bin golden_file In_channel.input_all with
  | exception Sys_error _ -> fun _ -> true
  | text ->
      let expected = Experiments.Golden.parse_file_format text in
      fun id -> List.assoc_opt id expected <> List.assoc_opt id digests

(* Set-up time runs from [t_spawn] (the parent's clock reading just
   before it started this process) to the moment the first experiment
   begins.  Each experiment's allocation is the delta of its own
   domain's minor-word counter; its packets are the link deliveries in
   the sink [Golden.digest_experiment] installed for it, read after the
   run (read-only, so digests are unchanged). *)
let sweep_entry ~t_spawn size =
  let exps = sweep_experiments size in
  let n = List.length exps in
  let first = Atomic.make 0 in
  let words = Array.make n 0. and deliveries = Array.make n 0 and raised = Array.make n false in
  let wrap i (e : Registry.experiment) =
    {
      e with
      Registry.run =
        (fun ~mode ~seed ->
          ignore (Atomic.compare_and_set first 0 (Span.now_ns ()) : bool);
          let w0 = Gc.minor_words () in
          let series =
            try e.Registry.run ~mode ~seed
            with _ ->
              raised.(i) <- true;
              []
          in
          words.(i) <- Gc.minor_words () -. w0;
          deliveries.(i) <-
            (match Scenario.ambient_obs () with
            | Some s -> Obs.Metrics.counter_value s.Obs.Sink.metrics "netsim_link_deliver_total"
            | None -> 0);
          series);
    }
  in
  let digests, m =
    measured (fun () ->
        Experiments.Golden.compute ~experiments:(List.mapi wrap exps) ~jobs:(sweep_jobs ())
          ~mode:Scenario.Quick ~seed:golden_seed ())
  in
  let bad = mismatched digests in
  let failed =
    List.length
      (List.filter Fun.id (List.mapi (fun i e -> raised.(i) || bad e.Registry.id) exps))
  in
  let m =
    List.map
      (fun (k, v) -> if k = "minor_words" then (k, Array.fold_left ( +. ) 0. words) else (k, v))
      m
  in
  [
    ("setup_s", secs (Atomic.get first - t_spawn));
    ("pkts", fi (Array.fold_left ( + ) 0 deliveries));
    ("units", fi n);
    ("ok_units", fi (n - failed));
    ("errors", fi failed);
  ]
  @ m

(* A sweep that sets up like [sweep_entry] — process start, pool, first
   task — but whose experiments return at once: a sweep sets up once per
   repetition, and its few milliseconds of set-up need more samples than
   the one or two repetitions a run holds. *)
let sweep_setup ~t_spawn size =
  let first = Atomic.make 0 in
  let noop (e : Registry.experiment) =
    {
      e with
      Registry.run =
        (fun ~mode:_ ~seed:_ ->
          ignore (Atomic.compare_and_set first 0 (Span.now_ns ()) : bool);
          []);
    }
  in
  ignore
    (Experiments.Golden.compute
       ~experiments:(List.map noop (sweep_experiments size))
       ~jobs:(sweep_jobs ()) ~mode:Scenario.Quick ~seed:golden_seed ()
      : (string * string) list);
  [ ("setup_s", secs (Atomic.get first - t_spawn)) ]

(* [Golden.compute] spelled out as its [Par.map] over
   [Golden.digest_experiment], with each task and each experiment's run
   timed: run time per experiment, digest time (task minus run) and how
   busy the pool's domains were. *)
let sweep_traced size =
  let exps = sweep_experiments size in
  let n = List.length exps in
  let jobs = sweep_jobs () in
  let run_ns = Array.make n 0 and task_ns = Array.make n 0 in
  let task i (e : Registry.experiment) () =
    let t0 = Span.now_ns () in
    let timed =
      {
        e with
        Registry.run =
          (fun ~mode ~seed ->
            let r0 = Span.now_ns () in
            let series = e.Registry.run ~mode ~seed in
            run_ns.(i) <- Span.now_ns () - r0;
            series);
      }
    in
    let d = Experiments.Golden.digest_experiment timed ~mode:Scenario.Quick ~seed:golden_seed in
    task_ns.(i) <- Span.now_ns () - t0;
    (e.Registry.id, d)
  in
  let t0 = Span.now_ns () in
  let digests = Par.map ~jobs (List.mapi task exps) in
  let makespan = Span.now_ns () - t0 in
  let bad = mismatched digests in
  let busy = Array.fold_left ( + ) 0 task_ns and run = Array.fold_left ( + ) 0 run_ns in
  [
    ("wall_s", secs makespan);
    ("errors", fi (count_if (fun e -> bad e.Registry.id) exps));
    ("golden.digest_s", secs (busy - run));
    ("par.busy_frac", fi busy /. (fi jobs *. fi makespan));
  ]
  @ List.mapi (fun i e -> ("experiments." ^ e.Registry.id ^ ".run_s", secs run_ns.(i))) exps

(* ------------------------------------------------------------ dispatch *)

let run w variant ~seed ~t_spawn size : fields =
  let fields =
    match (w, variant) with
    | Sim_fanout, Entry -> sim_entry ~seed size
    | Sim_fanout, Traced -> lockstep (fun tracer ~obs -> sim_mirror ?tracer ~seed ~obs size)
    | (Rt_fleet | Rt_chaos), Entry -> rt_entry w ~seed size
    | (Rt_fleet | Rt_chaos), Mirror -> solo (rt_mirror w ~seed ~obs:(Obs.Sink.create ()) size)
    | (Rt_fleet | Rt_chaos), Traced -> lockstep (fun tracer ~obs -> rt_mirror ?tracer w ~seed ~obs size)
    | Sweep_golden, Entry -> sweep_entry ~t_spawn size
    | Sweep_golden, Setup -> sweep_setup ~t_spawn size
    | Sweep_golden, Traced -> sweep_traced size
    | (Sim_fanout | Sweep_golden), Mirror ->
        invalid_arg "Workload.run: solo mirrors are for the rt workloads"
    | (Sim_fanout | Rt_fleet | Rt_chaos), Setup ->
        invalid_arg "Workload.run: set-up probes are for sweep-golden"
  in
  fields @ [ ("peak_rss_mb", peak_rss_mb ()) ]
