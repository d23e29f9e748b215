(* Many-session soak driver (see harness.mli). *)

open Tfmcc_core

type transport = Loopback | Udp_sockets

type supervision = { probe_interval : float }

(* Idle probes before a session counts as stalled, and the first
   restart delay in seconds (doubled per restart). *)
let stall_probes = 20

let restart_backoff = 0.25

let max_restarts = 3

type fault =
  | Kill_session of { session : int; at : float }
  | Kill_session_every of { session : int; at : float; period : float; until : float }
  | Stop_sender of { session : int; at : float }
  | Partition_clr of { at : float; until : float }

type config = {
  sessions : int;
  receivers : int;
  duration : float;
  impair : Net.impairment;
  cfg : Config.t;
  mode : Loop.mode;
  transport : transport;
  epoch : float;
  seed : int;
  supervise : supervision;
  chaos : Chaos.plan;
  faults : fault list;
}

let default =
  {
    sessions = 4;
    receivers = 1;
    duration = 8.;
    impair = Net.impairment ~loss:0.02 ~delay:0.025 ~jitter:0.005 ~warmup:2. ();
    cfg = Config.default;
    mode = Loop.Turbo;
    transport = Loopback;
    epoch = 0.;
    seed = 42;
    supervise = { probe_interval = 1.0 };
    chaos = [];
    faults = [];
  }

let chaos_soak =
  {
    default with
    sessions = 200;
    receivers = 4;
    duration = 20.;
    cfg = { Config.default with rtt_initial = 0.15 };
    chaos =
      [
        Chaos.Flap { down_at = 7.; up_at = 7.4 };
        Chaos.Churn
          {
            sessions = [];
            fraction = 0.2;
            from_ = 4.;
            until = 10.;
            period = 1.5;
            down_for = 0.6;
          };
      ];
    faults = [ Partition_clr { at = 3.; until = 6. } ];
  }

type session_stat = {
  session : int;
  rate : float;
  packets : int;
  reports : int;
  starved : bool;
  loss_rate : float;
  rtt : float;
  rtt_measured : bool;
  failovers : int;
  starvations : int;
}

type result = {
  stats : session_stat list;
  outcomes : (int * session_stat Par.outcome) list;
  wall_s : float;
  end_time : float;
  timers_fired : int;
  clock_anomalies : int;
  frames_sent : int;
  frames_delivered : int;
  frames_lost : int;
  frames_blocked : int;
  encode_drops : int;
  decode_errors : int;
  crashes : int;
  restarts : int;
  stalls : int;
  sessions_failed : int;
  loop_exceptions : int;
  clr_partitioned : int;
}

(* Per-session supervision state (DESIGN.md §15).  [gen] is the crash
   generation: every timer, callback and delivery hook captures the
   generation it was installed under and mutes itself once the
   supervisor has moved on — a restarted session can never be poked by
   its dead predecessor's timers. *)
type sup = {
  sid : int;
  mutable gen : int;
  mutable sess : Session.t option;
  mutable guarded_env : Env.t option;  (* current sender env; kill faults inject here *)
  mutable state : [ `Running | `Backoff | `Failed ];
  mutable crashes : int;
  mutable restarts : int;
  mutable stalls : int;
  mutable last_packets : int;
  mutable idle_probes : int;
  mutable fail : [ `Crash of exn * Printexc.raw_backtrace | `Stall of string ] option;
}

let validate_faults c =
  let need_session sid name =
    if sid < 1 || sid > c.sessions then
      invalid_arg (Printf.sprintf "Harness: %s names unknown session %d" name sid)
  in
  List.iter
    (fun f ->
      match f with
      | Kill_session { session; at } ->
          need_session session "Kill_session";
          if not (Float.is_finite at && at >= 0.) then
            invalid_arg "Harness: Kill_session.at must be finite and >= 0"
      | Kill_session_every { session; at; period; until } ->
          need_session session "Kill_session_every";
          if not (Float.is_finite period && period > 0.) then
            invalid_arg "Harness: Kill_session_every.period must be positive";
          if not (Float.is_finite at && at >= 0. && Float.is_finite until && until > at)
          then
            invalid_arg
              "Harness: Kill_session_every window must be finite with until > at"
      | Stop_sender { session; at } ->
          need_session session "Stop_sender";
          if not (Float.is_finite at && at >= 0.) then
            invalid_arg "Harness: Stop_sender.at must be finite and >= 0"
      | Partition_clr { at; until } ->
          if not (Float.is_finite at && at >= 0. && Float.is_finite until && until > at)
          then invalid_arg "Harness: Partition_clr window must be finite with until > at")
    c.faults;
  List.iter
    (function
      | Chaos.Churn { sessions; _ } ->
          List.iter (fun sid -> need_session sid "Chaos.Churn") sessions
      | Chaos.Flap _ -> ())
    c.chaos

let run ?obs c =
  if c.sessions < 1 then invalid_arg "Harness.run: need at least one session";
  if c.receivers < 1 then invalid_arg "Harness.run: need at least one receiver";
  if not (Float.is_finite c.duration && c.duration > 0.) then
    invalid_arg "Harness.run: duration must be finite and positive";
  if not (Float.is_finite c.epoch) then invalid_arg "Harness.run: epoch must be finite";
  if not (Float.is_finite c.supervise.probe_interval && c.supervise.probe_interval > 0.)
  then invalid_arg "Harness.run: probe_interval must be positive";
  Chaos.validate c.chaos;
  validate_faults c;
  let obs = match obs with Some s -> s | None -> Obs.Sink.create () in
  let loop = Loop.create ~mode:c.mode ~epoch:c.epoch ~obs ~seed:c.seed () in
  let net =
    match c.transport with
    | Loopback -> Net.create loop ~impair:c.impair ()
    | Udp_sockets -> Net.create_udp loop
  in
  let m = obs.Obs.Sink.metrics in
  let m_crashes = Obs.Metrics.counter m "tfmcc_rt_session_crashes_total" in
  let m_restarted = Obs.Metrics.counter m "tfmcc_rt_sessions_restarted_total" in
  let m_failed = Obs.Metrics.counter m "tfmcc_rt_sessions_failed_total" in
  let m_stalls = Obs.Metrics.counter m "tfmcc_rt_session_stalls_total" in
  Obs.Metrics.Gauge.set
    (Obs.Metrics.gauge m "tfmcc_rt_sessions")
    (float_of_int c.sessions);
  let journal sup ~severity ~kind ~detail =
    Obs.Sink.event obs ~time:(Loop.now loop) ~severity
      (Obs.Journal.scope ~session:sup.sid "rt.harness")
      (Obs.Journal.Fault { kind; detail })
  in
  (* Backstop: nothing should reach this (every session path is guarded
     below), but a bug in the harness itself must not kill the other
     199 sessions.  [Loop.exceptions_caught] stays 0 on a healthy run
     and the CI soak asserts exactly that. *)
  Loop.set_exn_handler loop (fun e _bt ->
      Obs.Sink.event obs ~time:(Loop.now loop) ~severity:Obs.Journal.Error
        (Obs.Journal.scope "rt.harness")
        (Obs.Journal.Fault
           { kind = "loop-exception"; detail = Printexc.to_string e }));
  let sups =
    List.init c.sessions (fun i ->
        {
          sid = i + 1;
          gen = 0;
          sess = None;
          guarded_env = None;
          state = `Running;
          crashes = 0;
          restarts = 0;
          stalls = 0;
          last_packets = -1;
          idle_probes = 0;
          fail = None;
        })
  in
  let sup_for sid = List.nth sups (sid - 1) in
  let clr_partitioned = ref 0 in
  (* [guard] captures the generation a callback was installed under:
     stale generations are muted, and an exception in a live one is a
     session crash, not a loop crash. *)
  let rec guard sup ~gen fn () =
    if sup.gen = gen then
      try fn ()
      with e -> on_crash sup e (Printexc.get_raw_backtrace ())
  and guard_env sup ~gen (env : Env.t) =
    {
      env with
      Env.after = (fun ~delay fn -> env.Env.after ~delay (guard sup ~gen fn));
      after_unit = (fun ~delay fn -> env.Env.after_unit ~delay (guard sup ~gen fn));
      at = (fun ~time fn -> env.Env.at ~time (guard sup ~gen fn));
    }
  (* One incarnation's backend: [Net.backend] with every timer and both
     hooks under [guard]'s rule.  The sender's env is kept: kill faults
     inject through it. *)
  and guarded sup ~gen ~sender =
    {
      Session.env =
        (fun ep ->
          let env = guard_env sup ~gen (Net.env ep) in
          if ep == sender then sup.guarded_env <- Some env;
          env);
      on_data =
        (fun ep f ->
          Net.backend.on_data ep (fun ~size d ->
              if sup.gen = gen then
                try f ~size d with e -> on_crash sup e (Printexc.get_raw_backtrace ())));
      on_report =
        (fun ep f ->
          Net.backend.on_report ep (fun r ->
              if sup.gen = gen then
                try f r with e -> on_crash sup e (Printexc.get_raw_backtrace ())));
    }
  and build_session sup ~start_at =
    let sender = Net.endpoint net ~session:sup.sid in
    let receivers = List.init c.receivers (fun _ -> Net.endpoint net ~session:sup.sid) in
    let s =
      Session.build (guarded sup ~gen:sup.gen ~sender) ~cfg:c.cfg ~session:sup.sid ~sender
        ~receivers ()
    in
    sup.sess <- Some s;
    Session.start s ~at:start_at
  and teardown sup =
    (* Advance the generation first: everything the dead incarnation
       scheduled is mute from here on.  Then stop the sender and pull
       the receivers out of the group so fan-out stops feeding them. *)
    sup.gen <- sup.gen + 1;
    match sup.sess with
    | None -> ()
    | Some s ->
        (try Session.stop s with _ -> ());
        List.iter
          (fun r -> try Receiver.leave r ~explicit_leave:false () with _ -> ())
          (Session.receivers s)
  and retire sup ~cause =
    teardown sup;
    sup.fail <- Some cause;
    if sup.restarts >= max_restarts then begin
      sup.state <- `Failed;
      Obs.Metrics.Counter.inc m_failed;
      journal sup ~severity:Obs.Journal.Error ~kind:"session-failed"
        ~detail:(Printf.sprintf "gave up after %d restarts" sup.restarts)
    end
    else begin
      sup.state <- `Backoff;
      let delay = restart_backoff *. (2. ** float_of_int sup.restarts) in
      sup.restarts <- sup.restarts + 1;
      Obs.Metrics.Counter.inc m_restarted;
      journal sup ~severity:Obs.Journal.Warn ~kind:"session-restart"
        ~detail:(Printf.sprintf "restart %d in %.3fs" sup.restarts delay);
      ignore
        (Loop.after loop ~delay (fun () ->
             if sup.state = `Backoff then begin
               sup.state <- `Running;
               sup.idle_probes <- 0;
               sup.last_packets <- -1;
               build_session sup ~start_at:(Loop.now loop)
             end)
          : Env.timer)
    end
  and on_crash sup e bt =
    match sup.state with
    | `Backoff | `Failed -> ()
    | `Running ->
        sup.crashes <- sup.crashes + 1;
        Obs.Metrics.Counter.inc m_crashes;
        journal sup ~severity:Obs.Journal.Error ~kind:"session-crash"
          ~detail:(Printexc.to_string e);
        retire sup ~cause:(`Crash (e, bt))
  in
  (* A fatal transport error is not restartable: the incarnation's
     socket is gone and every retry would rebuild state the kernel
     already refused.  Fail the session immediately. *)
  Net.set_on_fatal net (fun ~session ~endpoint e ->
      let sup = sup_for session in
      match sup.state with
      | `Failed -> ()
      | `Running | `Backoff ->
          teardown sup;
          sup.fail <- Some (`Crash (e, Printexc.get_callstack 0));
          sup.state <- `Failed;
          Obs.Metrics.Counter.inc m_failed;
          journal sup ~severity:Obs.Journal.Error ~kind:"session-failed"
            ~detail:
              (Printf.sprintf "fatal transport error on endpoint %d: %s" endpoint
                 (Printexc.to_string e)));
  List.iteri
    (fun i sup ->
      (* Stagger the starts so a thousand senders don't share one
         feedback-round phase. *)
      build_session sup ~start_at:(c.epoch +. (0.01 *. float_of_int (i mod 128))))
    sups;
  (* Stall watchdog: one probe sweep over every running session.  A
     session that has not sent a packet for [stall_probes] consecutive
     probes is stalled (the rt mirror of [Netsim.Watchdog]'s
     no-progress rule; [<>] not [>] because a restarted sender's count
     begins again at zero). *)
  ignore
    (Loop.every loop ~interval:c.supervise.probe_interval (fun () ->
         List.iter
           (fun sup ->
             match (sup.state, sup.sess) with
             | `Running, Some s ->
                 let p = Sender.packets_sent (Session.sender s) in
                 if p <> sup.last_packets then begin
                   sup.last_packets <- p;
                   sup.idle_probes <- 0
                 end
                 else begin
                   sup.idle_probes <- sup.idle_probes + 1;
                   if sup.idle_probes >= stall_probes then begin
                     let reason =
                       Printf.sprintf "no packets for %d probes (%.1fs)"
                         sup.idle_probes
                         (float_of_int sup.idle_probes *. c.supervise.probe_interval)
                     in
                     sup.stalls <- sup.stalls + 1;
                     sup.idle_probes <- 0;
                     Obs.Metrics.Counter.inc m_stalls;
                     journal sup ~severity:Obs.Journal.Warn ~kind:"session-stall"
                       ~detail:reason;
                     retire sup ~cause:(`Stall reason)
                   end
                 end
             | _ -> ())
           sups)
      : Env.timer);
  (* Fault injection (times relative to the epoch, like chaos plans).
     Kills are injected through the session's own guarded env so the
     exception exercises the real crash path, not a shortcut. *)
  let inject_kill sup =
    match (sup.state, sup.guarded_env) with
    | `Running, Some env ->
        env.Env.after_unit ~delay:0. (fun () ->
            failwith "chaos: injected session kill")
    | _ -> ()
  in
  List.iter
    (fun f ->
      let arm ~at fn =
        ignore (Loop.at loop ~time:(c.epoch +. at) fn : Env.timer)
      in
      match f with
      | Kill_session { session; at } ->
          arm ~at (fun () -> inject_kill (sup_for session))
      | Kill_session_every { session; at; period; until } ->
          let t = ref at in
          while !t < until do
            let at = !t in
            arm ~at (fun () -> inject_kill (sup_for session));
            t := !t +. period
          done
      | Stop_sender { session; at } ->
          arm ~at (fun () ->
              let sup = sup_for session in
              match (sup.state, sup.sess) with
              | `Running, Some s -> Sender.stop (Session.sender s)
              | _ -> ())
      | Partition_clr { at; until } ->
          (* Each window heals only the CLRs it blocked itself: a block
             is refcounted, so an overlapping window keeps its own. *)
          let blocked = ref [] in
          arm ~at (fun () ->
              List.iter
                (fun sup ->
                  match (sup.state, sup.sess) with
                  | `Running, Some s -> (
                      match Sender.clr (Session.sender s) with
                      | Some node ->
                          Net.block net node;
                          incr clr_partitioned;
                          blocked := node :: !blocked;
                          journal sup ~severity:Obs.Journal.Error
                            ~kind:"clr-partitioned"
                            ~detail:(Printf.sprintf "endpoint %d" node)
                      | None -> ())
                  | _ -> ())
                sups);
          arm ~at:until (fun () -> List.iter (Net.unblock net) !blocked))
    c.faults;
  if c.chaos <> [] then ignore (Chaos.apply net c.chaos : Chaos.t);
  let t0 = Unix.gettimeofday () in
  Loop.run ~until:(c.epoch +. c.duration) loop;
  let wall_s = Unix.gettimeofday () -. t0 in
  let stat_of sup s =
    let snd = Session.sender s in
    let rxs = Session.receivers s in
    let n = float_of_int (List.length rxs) in
    let mean f = List.fold_left (fun a r -> a +. f r) 0. rxs /. n in
    {
      session = sup.sid;
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
  in
  let outcomes =
    List.map
      (fun sup ->
        let outcome =
          match (sup.state, sup.sess, sup.fail) with
          | `Running, Some s, _ -> Par.Ok (stat_of sup s)
          | (`Failed | `Backoff), _, Some (`Crash (exn, backtrace)) ->
              Par.Failed { exn; backtrace }
          | (`Failed | `Backoff), _, Some (`Stall reason) -> Par.Stalled { reason }
          | _ ->
              Par.Failed
                {
                  exn = Failure "session lost without a recorded cause";
                  backtrace = Printexc.get_callstack 0;
                }
        in
        (sup.sid, outcome))
      sups
  in
  let stats =
    List.filter_map
      (fun sup -> Option.map (stat_of sup) sup.sess)
      sups
  in
  (* One ledger for both ways: the encode step's drops and the socket
     send errors, and every chaos or shedding drop. *)
  let encode_drops = Net.encode_drops net + Net.send_errors net in
  let frames_blocked = Net.partition_drops net + Net.flap_drops net + Net.send_shed net in
  Net.close net;
  {
    stats;
    outcomes;
    wall_s;
    end_time = Loop.now loop;
    timers_fired = Loop.timers_fired loop;
    clock_anomalies = Loop.clock_anomalies loop;
    frames_sent = Net.frames_sent net;
    frames_delivered = Net.frames_delivered net;
    frames_lost = Net.frames_lost net;
    frames_blocked;
    encode_drops;
    decode_errors = Net.decode_errors net;
    crashes = List.fold_left (fun a s -> a + s.crashes) 0 sups;
    restarts = List.fold_left (fun a s -> a + s.restarts) 0 sups;
    stalls = List.fold_left (fun a s -> a + s.stalls) 0 sups;
    sessions_failed =
      List.length (List.filter (fun s -> s.state = `Failed) sups);
    loop_exceptions = Loop.exceptions_caught loop;
    clr_partitioned = !clr_partitioned;
  }

let converged stat ~cfg =
  (* "Converged" per the acceptance bar: non-zero goodput and not parked
     on a degenerate floor.  One packet per measured RTT is the
     protocol's working floor; the absolute minimum (one packet per 64 s)
     and the starvation decay both sit far below it. *)
  let per_rtt =
    stat.rate *. Float.max stat.rtt 1e-3 /. float_of_int cfg.Config.packet_size
  in
  stat.packets > 0 && (not stat.starved) && per_rtt >= 1.
