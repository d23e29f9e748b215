(* tfmcc-sim: run any of the paper's experiments from the command line. *)

open Cmdliner

let mode_of_full full = if full then Experiments.Scenario.Full else Experiments.Scenario.Quick

let print_series ~csv series =
  List.iter
    (fun s ->
      if csv then print_string (Experiments.Series.to_csv s)
      else Format.printf "%a@." Experiments.Series.pp s)
    series

let list_cmd =
  let doc = "List the available experiments (one per paper figure)." in
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-7s %-10s %s\n" e.Experiments.Registry.id
          e.Experiments.Registry.figure e.Experiments.Registry.title)
      Experiments.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let full_arg =
  let doc = "Run at the paper's full scale (receiver counts, durations)." in
  Arg.(value & flag & info [ "full" ] ~doc)

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~doc ~docv:"SEED")

let csv_arg =
  let doc = "Emit CSV instead of aligned tables." in
  Arg.(value & flag & info [ "csv" ] ~doc)

let json_arg =
  let doc =
    "Emit one JSON document (series, metric snapshot, protocol journal) \
     instead of tables."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let metrics_out_arg =
  let doc =
    "Write the run's metric snapshot and protocol journal as JSON to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics-out" ] ~doc ~docv:"FILE")

let strict_arg =
  let doc =
    "Run under the runtime invariant checker in strict mode: the first \
     violated invariant aborts with exit code 2 and the offending journal \
     window on stderr."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let handle_violation f =
  try f () with
  | Check.Invariant.Violation msg ->
      Printf.eprintf "invariant violation:\n%s\n%!" msg;
      exit 2

let write_metrics_out ~file sink =
  let oc = open_out file in
  output_string oc (Obs.Json.to_string (Obs.Sink.to_json sink));
  output_char oc '\n';
  close_out oc

let json_document ~id sink series =
  Obs.Json.Obj
    [
      ("experiment", Obs.Json.Str id);
      ( "series",
        Obs.Json.Arr (List.map Experiments.Series.to_json series) );
      ("metrics", Obs.Metrics.to_json sink.Obs.Sink.metrics);
      ("journal", Obs.Journal.to_json sink.Obs.Sink.journal);
    ]

let run_cmd =
  let doc = "Run one experiment by id (e.g. fig09)." in
  let id_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"experiment id")
  in
  let plot_arg =
    let doc = "Also render each series' first column as a terminal plot." in
    Arg.(value & flag & info [ "plot" ] ~doc)
  in
  let run id full seed csv plot json metrics_out strict =
    match Experiments.Registry.find id with
    | None ->
        Printf.eprintf "unknown experiment %s; try `tfmcc-sim list'\n" id;
        exit 1
    | Some e ->
        let sink, series =
          handle_violation (fun () ->
              Experiments.Sweep.run_cell ~strict e ~mode:(mode_of_full full)
                ~seed)
        in
        if json then
          print_endline (Obs.Json.to_string (json_document ~id sink series))
        else begin
          print_series ~csv series;
          if plot then
            List.iter
              (fun s -> print_string (Experiments.Series.render_ascii s ~col:(List.length s.Experiments.Series.ylabels - 1)))
              series
        end;
        match metrics_out with
        | Some file -> write_metrics_out ~file sink
        | None -> ()
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const run $ id_arg $ full_arg $ seed_arg $ csv_arg $ plot_arg
          $ json_arg $ metrics_out_arg $ strict_arg)

let sweep_cmd =
  let doc =
    "Run experiments fanned out over a pool of OCaml domains, costliest \
     experiment first.  Output is deterministic: for a given seed it is \
     byte-identical whatever $(b,-j) is (timings go to stderr)."
  in
  let jobs_arg =
    let doc = "Worker domains (1 = serial in the calling domain)." in
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~doc ~docv:"N")
  in
  let seeds_arg =
    let doc =
      "Replicate seeds per experiment (seed, seed+1, …).  With K > 1 each \
       experiment reports the per-cell mean/stddev aggregate across seeds."
    in
    Arg.(value & opt int 1 & info [ "seeds" ] ~doc ~docv:"K")
  in
  let replicates_arg =
    let doc = "With --seeds, also print every per-seed series." in
    Arg.(value & flag & info [ "replicates" ] ~doc)
  in
  let ids_arg =
    let doc = "Experiment ids to sweep (default: all)." in
    Arg.(value & pos_all string [] & info [] ~doc ~docv:"ID")
  in
  let task_timeout_arg =
    let doc =
      "Per-attempt wall-clock budget in seconds.  Enforced cooperatively by \
       the engine watchdog; an overrunning task is cancelled and reported, \
       not killed."
    in
    Arg.(value & opt (some float) None & info [ "task-timeout" ] ~doc ~docv:"SECS")
  in
  let retries_arg =
    let doc = "Extra attempts per task after a crash/timeout/stall (0 = fail fast)." in
    Arg.(value & opt int 0 & info [ "retries" ] ~doc ~docv:"N")
  in
  let retry_delay_arg =
    let doc = "Base backoff before a retry; doubles per attempt." in
    Arg.(value & opt float 0. & info [ "retry-delay" ] ~doc ~docv:"SECS")
  in
  let max_events_arg =
    let doc = "Abort a task after this many engine events in one attempt (event-storm cap)." in
    Arg.(value & opt (some int) None & info [ "max-events" ] ~doc ~docv:"N")
  in
  let checkpoint_arg =
    let doc = "Persist each completed task into $(docv) as it finishes." in
    Arg.(value & opt (some string) None & info [ "checkpoint" ] ~doc ~docv:"DIR")
  in
  let resume_arg =
    let doc =
      "Load completed tasks from $(docv) (skipping them) and keep \
       checkpointing new completions there.  Output is byte-identical to an \
       uninterrupted run."
    in
    Arg.(value & opt (some string) None & info [ "resume" ] ~doc ~docv:"DIR")
  in
  let failure_report_arg =
    let doc = "Write the sweep report (failures, summary, series) as JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "failure-report" ] ~doc ~docv:"FILE")
  in
  let run full seed csv jobs seeds replicates strict json task_timeout
      retries retry_delay max_events checkpoint resume failure_report
      ids =
    if jobs < 1 then begin
      Printf.eprintf "sweep: -j must be >= 1\n";
      exit 1
    end;
    if seeds < 1 then begin
      Printf.eprintf "sweep: --seeds must be >= 1\n";
      exit 1
    end;
    if retries < 0 then begin
      Printf.eprintf "sweep: --retries must be >= 0\n";
      exit 1
    end;
    let checkpoint =
      match (checkpoint, resume) with
      | Some a, Some b when a <> b ->
          Printf.eprintf
            "sweep: --checkpoint %s and --resume %s are different directories\n"
            a b;
          exit 1
      | _, Some dir | Some dir, None -> Some dir
      | None, None -> None
    in
    let experiments =
      match ids with
      | [] -> Experiments.Registry.all
      | ids ->
          List.map
            (fun id ->
              match Experiments.Registry.find id with
              | Some e -> e
              | None ->
                  Printf.eprintf "unknown experiment %s; try `tfmcc-sim list'\n" id;
                  exit 1)
            ids
    in
    let policy =
      {
        Experiments.Sweep.task_timeout;
        retries;
        retry_delay;
        max_events;
        checkpoint;
        resume = resume <> None;
      }
    in
    let t0 = Unix.gettimeofday () in
    let report =
      Experiments.Sweep.run ~experiments ~strict ~policy ~jobs
        ~mode:(mode_of_full full) ~seed ~seeds ()
    in
    let wall = Unix.gettimeofday () -. t0 in
    if json then
      print_endline (Obs.Json.to_string (Experiments.Sweep.report_to_json report))
    else
      print_string
        (Experiments.Sweep.render ~csv ~replicates ~seeds
           report.Experiments.Sweep.results);
    (match failure_report with
    | Some file ->
        let oc = open_out file in
        output_string oc
          (Obs.Json.to_string (Experiments.Sweep.report_to_json report));
        output_char oc '\n';
        close_out oc
    | None -> ());
    if report.Experiments.Sweep.failures <> [] then
      prerr_string (Experiments.Sweep.render_failures report);
    Printf.eprintf "sweep: %d experiments x %d seed(s), -j %d: %.1fs wall\n%!"
      (List.length experiments) seeds jobs wall;
    if report.Experiments.Sweep.resumed > 0 then
      Printf.eprintf "sweep: %d task(s) resumed from checkpoints\n%!"
        report.Experiments.Sweep.resumed;
    if report.Experiments.Sweep.failures <> [] then
      Printf.eprintf "sweep: %d of %d task(s) failed\n%!"
        (List.length report.Experiments.Sweep.failures)
        report.Experiments.Sweep.tasks;
    let code = Experiments.Sweep.exit_code report in
    if code <> 0 then exit code
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(const run $ full_arg $ seed_arg $ csv_arg $ jobs_arg $ seeds_arg
          $ replicates_arg $ strict_arg $ json_arg
          $ task_timeout_arg $ retries_arg $ retry_delay_arg $ max_events_arg
          $ checkpoint_arg $ resume_arg
          $ failure_report_arg $ ids_arg)

let verify_golden_cmd =
  let doc =
    "Verify every experiment's output digest against the checked-in golden \
     file (or regenerate it with $(b,--regen)).  Digests cover each \
     figure's series CSVs and observability snapshot at quick scale; the \
     determinism contract makes them byte-identical for any $(b,-j)."
  in
  let jobs_arg =
    let doc = "Worker domains (1 = serial in the calling domain)." in
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~doc ~docv:"N")
  in
  let regen_arg =
    let doc = "Rewrite the golden file from this run instead of comparing." in
    Arg.(value & flag & info [ "regen" ] ~doc)
  in
  let file_arg =
    let doc = "Golden digest file." in
    Arg.(value & opt string "test/golden/digests.txt" & info [ "file" ] ~doc ~docv:"FILE")
  in
  let run seed jobs regen file =
    if jobs < 1 then begin
      Printf.eprintf "verify-golden: -j must be >= 1\n";
      exit 1
    end;
    let actual =
      Experiments.Golden.compute ~jobs ~mode:Experiments.Scenario.Quick ~seed ()
    in
    if regen then begin
      let oc = open_out file in
      output_string oc (Experiments.Golden.to_file_format actual);
      close_out oc;
      Printf.printf "verify-golden: wrote %d digests to %s\n"
        (List.length actual) file
    end
    else begin
      let expected =
        match open_in file with
        | ic ->
            let len = in_channel_length ic in
            let text = really_input_string ic len in
            close_in ic;
            Experiments.Golden.parse_file_format text
        | exception Sys_error msg ->
            Printf.eprintf
              "verify-golden: cannot read %s (%s); run with --regen first\n"
              file msg;
            exit 1
      in
      match Experiments.Golden.diff ~expected ~actual with
      | [] ->
          Printf.printf "verify-golden: %d digests OK (seed %d)\n"
            (List.length expected) seed
      | diffs ->
          List.iter
            (fun (id, what) ->
              match what with
              | `Missing ->
                  Printf.eprintf "verify-golden: %s: recorded but not produced\n" id
              | `Extra ->
                  Printf.eprintf
                    "verify-golden: %s: produced but not recorded (--regen to add)\n" id
              | `Mismatch (want, got) ->
                  Printf.eprintf
                    "verify-golden: %s: digest mismatch (recorded %s, got %s)\n"
                    id want got)
            diffs;
          Printf.eprintf
            "verify-golden: %d of %d digests differ — behavioural change; \
             fix the regression or re-record with --regen\n"
            (List.length diffs) (List.length actual);
          exit 1
    end
  in
  Cmd.v (Cmd.info "verify-golden" ~doc)
    Term.(const run $ seed_arg $ jobs_arg $ regen_arg $ file_arg)

let chaos_cmd =
  let doc =
    "Run the robustness suite back to back: fault injection (rob01 CLR \
     crash, rob02 partition, rob03 corruption), the Byzantine-receiver \
     attacks (rob04 understater, rob05 rtt-liar, rob06 spammer), and the \
     rob07 defense-ablation scorecard of per-attack honest-goodput \
     degradation with defenses off vs on."
  in
  let plot_arg =
    let doc = "Also render each series' rate column as a terminal plot." in
    Arg.(value & flag & info [ "plot" ] ~doc)
  in
  let run full seed csv plot =
    let mode = mode_of_full full in
    List.iter
      (fun id ->
        match Experiments.Registry.find id with
        | None -> assert false
        | Some e ->
            Printf.printf "--- %s: %s ---\n%!" id e.Experiments.Registry.title;
            let sink, series = Experiments.Sweep.run_cell e ~mode ~seed in
            print_series ~csv series;
            if plot then
              List.iter
                (fun s -> print_string (Experiments.Series.render_ascii s ~col:0))
                series;
            (* Damage summary straight from the shared registry/journal. *)
            let metrics = sink.Obs.Sink.metrics in
            let journal = sink.Obs.Sink.journal in
            Printf.printf "[obs] %s\n"
              (Obs.Metrics.describe ~prefix:"netsim_fault_" metrics);
            Printf.printf
              "[obs] drops: %d queue, %d loss, %d link-down; malformed \
               rejected: %d reports + %d data\n"
              (Obs.Metrics.sum_counters metrics "netsim_link_drop_queue_total")
              (Obs.Metrics.sum_counters metrics "netsim_link_drop_loss_total")
              (Obs.Metrics.sum_counters metrics "netsim_link_drop_down_total")
              (Obs.Metrics.sum_counters metrics
                 "tfmcc_sender_malformed_drops_total")
              (Obs.Metrics.sum_counters metrics
                 "tfmcc_receiver_malformed_drops_total");
            Printf.printf
              "[obs] journal: %d events recorded, %d retained (%d at warn or \
               above)\n%!"
              (Obs.Journal.total_recorded journal)
              (Obs.Journal.count journal ())
              (Obs.Journal.count journal ~min_severity:Obs.Journal.Warn ()))
      [ "rob01"; "rob02"; "rob03" ];
    (* Byzantine attacks run per-cell on private sinks (so defense
       counters never mix between cells); their series notes carry the
       per-run summaries, and the scorecard below is the rollup. *)
    List.iter
      (fun id ->
        match Experiments.Registry.find id with
        | None -> assert false
        | Some e ->
            Printf.printf "--- %s: %s ---\n%!" id e.Experiments.Registry.title;
            let _, series = Experiments.Sweep.run_cell e ~mode ~seed in
            print_series ~csv series;
            if plot then
              List.iter
                (fun s -> print_string (Experiments.Series.render_ascii s ~col:0))
                series)
      [ "rob04"; "rob05"; "rob06" ];
    Printf.printf "--- rob07: chaos scorecard (defense ablation) ---\n%!";
    let sc = Experiments.Rob_common.scorecard ~mode ~seed in
    let lines = Experiments.Rob_common.scorecard_lines sc in
    if List.length lines < 2 + List.length Experiments.Rob_common.attacks
    then begin
      Printf.eprintf "chaos: scorecard came back empty\n";
      exit 1
    end;
    List.iter print_endline lines
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(const run $ full_arg $ seed_arg $ csv_arg $ plot_arg)

let scatter_cmd =
  let doc = "Dump the raw (time, value, sent) scatter of Fig. 2." in
  let n_arg =
    Arg.(value & opt int 2000 & info [ "n" ] ~docv:"N" ~doc:"receiver count")
  in
  let bias_arg =
    let bias_conv =
      Arg.enum
        [
          ("unbiased", Tfmcc_core.Config.Unbiased);
          ("offset", Tfmcc_core.Config.Offset);
          ("modified-offset", Tfmcc_core.Config.Modified_offset);
          ("modified-n", Tfmcc_core.Config.Modified_n);
        ]
    in
    Arg.(value & opt bias_conv Tfmcc_core.Config.Offset & info [ "bias" ] ~docv:"BIAS")
  in
  let run n bias seed =
    Printf.printf "time,value,sent\n";
    Array.iter
      (fun (t, v, sent) -> Printf.printf "%.6g,%.6g,%d\n" t v (Bool.to_int sent))
      (Experiments.Fig02_time_value.scatter ~seed ~n ~bias)
  in
  Cmd.v (Cmd.info "fig02-scatter" ~doc) Term.(const run $ n_arg $ bias_arg $ seed_arg)

let trace_cmd =
  let doc =
    "Run a small TFMCC session and dump an ns-2-style packet trace of its \
     bottleneck link."
  in
  let duration_arg =
    Arg.(value & opt float 5. & info [ "duration" ] ~docv:"SECONDS")
  in
  let run seed duration =
    let e = Netsim.Engine.create ~seed () in
    let topo = Netsim.Topology.create e in
    let sender = Netsim.Topology.add_node topo in
    let rx = Netsim.Topology.add_node topo in
    let ab, ba =
      Netsim.Topology.connect topo ~bandwidth_bps:400e3 ~delay_s:0.02 sender rx
    in
    let tracer = Netsim.Trace.create () in
    Netsim.Trace.attach tracer ab;
    Netsim.Trace.attach tracer ba;
    let session =
      Netsim_env.Session.create topo ~session:1 ~sender_node:sender
        ~receiver_nodes:[ rx ] ()
    in
    Tfmcc_core.Session.start session ~at:0.;
    Netsim.Engine.run ~until:duration e;
    print_string (Netsim.Trace.to_text tracer);
    Printf.eprintf
      "# %d events (+ tx, d queue-drop, x loss-drop, t ttl-drop, r deliver); \
       columns: kind time src dst flow size uid\n"
      (Netsim.Trace.total_recorded tracer)
  in
  Cmd.v (Cmd.info "trace" ~doc) Term.(const run $ seed_arg $ duration_arg)

let dot_cmd =
  let doc = "Emit a generated topology as Graphviz DOT (for inspection)." in
  let kind_arg =
    let kind_conv = Arg.enum [ ("transit-stub", `Ts); ("tree", `Tree); ("star", `Star) ] in
    Arg.(value & opt kind_conv `Ts & info [ "kind" ] ~docv:"KIND")
  in
  let size_arg = Arg.(value & opt int 20 & info [ "size" ] ~docv:"N") in
  let run kind size seed =
    let e = Netsim.Engine.create ~seed () in
    let topo = Netsim.Topology.create e in
    let rng = Stats.Rng.create seed in
    let nodes =
      match kind with
      | `Ts ->
          let ts =
            Netsim.Topo_gen.transit_stub topo rng
              ~stubs_per_transit:(Stdlib.max 1 (size / 8))
              ()
          in
          Array.concat
            [ ts.Netsim.Topo_gen.transits; ts.Netsim.Topo_gen.stubs; ts.Netsim.Topo_gen.hosts ]
      | `Tree -> Netsim.Topo_gen.random_tree topo rng ~n:size ()
      | `Star ->
          let hub, leaves = Netsim.Topo_gen.star topo ~leaves:size () in
          Array.append [| hub |] leaves
    in
    print_endline "graph topology {";
    print_endline "  node [shape=circle fontsize=9];";
    let n = Array.length nodes in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        match Netsim.Topology.link_between topo nodes.(i) nodes.(j) with
        | Some link ->
            Printf.printf "  n%d -- n%d [label=\"%.0fM/%.0fms\" fontsize=7];\n"
              (Netsim.Node.id nodes.(i))
              (Netsim.Node.id nodes.(j))
              (Netsim.Link.bandwidth_bps link /. 1e6)
              (Netsim.Link.delay_s link *. 1000.)
        | None -> ()
      done
    done;
    print_endline "}"
  in
  Cmd.v (Cmd.info "dot" ~doc) Term.(const run $ kind_arg $ size_arg $ seed_arg)

(* Run the rt harness on the config [config ()] builds.  Bad arguments
   surface as [Invalid_argument] from [Net.impairment] and from
   [Harness.run]'s up-front checks; report them like the other commands
   report theirs.  Faults inside a run never get here: the session guards
   and the loop backstop catch them. *)
let harness_run cmd ~obs config =
  match Rt.Harness.run ~obs (config ()) with
  | r -> r
  | exception Invalid_argument msg ->
      Printf.eprintf "%s: %s\n" cmd msg;
      exit 1

(* The impairment shim and initial-RTT flags [loopback] and [chaos-rt]
   share.  The impairment is built when the run starts, inside
   [harness_run], so a bad value is reported like any other. *)
let impair_term =
  let d = Rt.Harness.default.Rt.Harness.impair in
  let shim name default ~docv doc =
    Arg.(value & opt float default & info [ name ] ~docv ~doc:("Impairment shim: " ^ doc))
  in
  Term.(
    const (fun loss delay jitter warmup () ->
        Rt.Net.impairment ~loss ~delay ~jitter ~warmup ())
    $ shim "loss" d.Rt.Net.loss ~docv:"P" "per-frame loss probability."
    $ shim "delay" d.Rt.Net.delay ~docv:"SECONDS" "one-way delay, seconds."
    $ shim "jitter" d.Rt.Net.jitter ~docv:"SECONDS"
        "uniform extra delay width, seconds."
    $ shim "warmup" d.Rt.Net.warmup ~docv:"SECONDS"
        "hold the loss dice for this many initial seconds so slowstart \
         establishes before loss begins (netem-style staged impairment).")

let rtt_initial_arg =
  let doc =
    "Initial RTT estimate handed to the protocol (paper §2.4: deployments \
     tune this towards the real path RTT; the conservative 0.5 s default \
     makes slowstart crawl on a 100 ms path)."
  in
  Arg.(
    value
    & opt float Rt.Harness.chaos_soak.Rt.Harness.cfg.Tfmcc_core.Config.rtt_initial
    & info [ "rtt-initial" ] ~docv:"SECONDS" ~doc)

let loopback_cmd =
  let doc =
    "Drive concurrent TFMCC sessions over the real-time runtime (event loop + \
     byte codec + loopback datagram fabric) instead of the simulator."
  in
  let d = Rt.Harness.default in
  let sessions_arg =
    let doc = "Concurrent TFMCC sessions (one sender each)." in
    Arg.(value & opt int d.Rt.Harness.sessions & info [ "sessions" ] ~docv:"N" ~doc)
  in
  let receivers_arg =
    let doc = "Receivers per session." in
    Arg.(value & opt int d.Rt.Harness.receivers & info [ "receivers" ] ~docv:"N" ~doc)
  in
  let duration_arg =
    let doc = "Run length in loop-seconds (virtual time unless $(b,--realtime))." in
    Arg.(value & opt float d.Rt.Harness.duration & info [ "duration" ] ~docv:"SECONDS" ~doc)
  in
  let realtime_arg =
    let doc = "Run against the wall clock (default: turbo virtual time)." in
    Arg.(value & flag & info [ "realtime" ] ~doc)
  in
  let udp_arg =
    let doc =
      "Use real UDP sockets on 127.0.0.1 (implies $(b,--realtime); one fd per \
       endpoint, so keep the session count small)."
    in
    Arg.(value & flag & info [ "udp" ] ~doc)
  in
  let epoch_arg =
    let doc = "Initial loop-clock value, seconds (the protocol must not care)." in
    Arg.(value & opt float 0. & info [ "epoch" ] ~docv:"SECONDS" ~doc)
  in
  let run sessions receivers duration impair realtime udp epoch rtt_initial seed
      json metrics_out =
    let cfg = { Tfmcc_core.Config.default with rtt_initial } in
    let sink = Obs.Sink.create () in
    let r =
      harness_run "loopback" ~obs:sink (fun () ->
          {
            Rt.Harness.default with
            Rt.Harness.sessions;
            receivers;
            duration;
            impair = impair ();
            cfg;
            mode = (if realtime || udp then Rt.Loop.Realtime else Rt.Loop.Turbo);
            transport = (if udp then Rt.Harness.Udp_sockets else Rt.Harness.Loopback);
            epoch;
            seed;
          })
    in
    (match metrics_out with
    | Some file -> write_metrics_out ~file sink
    | None -> ());
    let rates = List.map (fun s -> s.Rt.Harness.rate) r.Rt.Harness.stats in
    let n = float_of_int (List.length rates) in
    let mean = List.fold_left ( +. ) 0. rates /. n in
    let min_r = List.fold_left Float.min infinity rates in
    let max_r = List.fold_left Float.max neg_infinity rates in
    let conv =
      List.length (List.filter (Rt.Harness.converged ~cfg) r.Rt.Harness.stats)
    in
    if json then
      let stat_json s =
        Obs.Json.Obj
          [
            ("session", Obs.Json.Int s.Rt.Harness.session);
            ("rate_bytes_per_s", Obs.Json.Float s.Rt.Harness.rate);
            ("packets", Obs.Json.Int s.Rt.Harness.packets);
            ("reports", Obs.Json.Int s.Rt.Harness.reports);
            ("starved", Obs.Json.Bool s.Rt.Harness.starved);
            ("loss_event_rate", Obs.Json.Float s.Rt.Harness.loss_rate);
            ("rtt", Obs.Json.Float s.Rt.Harness.rtt);
            ("converged", Obs.Json.Bool (Rt.Harness.converged s ~cfg));
          ]
      in
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("sessions", Obs.Json.Int sessions);
                ("receivers", Obs.Json.Int receivers);
                ("duration_s", Obs.Json.Float duration);
                ("wall_s", Obs.Json.Float r.Rt.Harness.wall_s);
                ("timers_fired", Obs.Json.Int r.Rt.Harness.timers_fired);
                ("clock_anomalies", Obs.Json.Int r.Rt.Harness.clock_anomalies);
                ("frames_sent", Obs.Json.Int r.Rt.Harness.frames_sent);
                ("frames_delivered", Obs.Json.Int r.Rt.Harness.frames_delivered);
                ("frames_lost", Obs.Json.Int r.Rt.Harness.frames_lost);
                ("encode_drops", Obs.Json.Int r.Rt.Harness.encode_drops);
                ("decode_errors", Obs.Json.Int r.Rt.Harness.decode_errors);
                ("converged_sessions", Obs.Json.Int conv);
                ("rate_min", Obs.Json.Float min_r);
                ("rate_mean", Obs.Json.Float mean);
                ("rate_max", Obs.Json.Float max_r);
                ("stats", Obs.Json.Arr (List.map stat_json r.Rt.Harness.stats));
                ("metrics", Obs.Metrics.to_json sink.Obs.Sink.metrics);
              ]))
    else begin
      Printf.printf
        "loopback: %d session(s) x %d receiver(s), %.1f loop-s in %.2f wall-s \
         (%s)\n"
        sessions receivers duration r.Rt.Harness.wall_s
        (if udp then "udp/realtime" else if realtime then "realtime" else "turbo");
      Printf.printf
        "frames: %d sent, %d delivered, %d lost, %d encode-drop, %d \
         decode-err; %d timers, %d clock anomalies\n"
        r.Rt.Harness.frames_sent r.Rt.Harness.frames_delivered
        r.Rt.Harness.frames_lost r.Rt.Harness.encode_drops
        r.Rt.Harness.decode_errors r.Rt.Harness.timers_fired
        r.Rt.Harness.clock_anomalies;
      Printf.printf "rates (kbit/s): min %.1f  mean %.1f  max %.1f; converged %d/%d\n"
        (min_r *. 8. /. 1000.) (mean *. 8. /. 1000.) (max_r *. 8. /. 1000.)
        conv sessions;
      if sessions <= 16 then
        List.iter
          (fun s ->
            Printf.printf
              "  session %3d: %8.1f kbit/s, %5d pkts, %3d reports, p=%.4f, \
               rtt=%.0f ms%s%s\n"
              s.Rt.Harness.session
              (s.Rt.Harness.rate *. 8. /. 1000.)
              s.Rt.Harness.packets s.Rt.Harness.reports s.Rt.Harness.loss_rate
              (s.Rt.Harness.rtt *. 1000.)
              (if s.Rt.Harness.starved then " STARVED" else "")
              (if Rt.Harness.converged s ~cfg then "" else " (not converged)"))
          r.Rt.Harness.stats
    end
  in
  Cmd.v
    (Cmd.info "loopback" ~doc)
    Term.(
      const run $ sessions_arg $ receivers_arg $ duration_arg $ impair_term
      $ realtime_arg $ udp_arg $ epoch_arg $ rtt_initial_arg $ seed_arg
      $ json_arg $ metrics_out_arg)

(* The share of sessions [chaos-rt] requires to converge. *)
let min_converged = 0.95

let chaos_rt_cmd =
  let doc =
    "Soak many TFMCC sessions on the real-time runtime under a fixed chaos \
     plan (every CLR partitioned mid-slowstart, a fabric flap, receiver \
     churn) and assert convergence and post-fault recovery — the rt twin of \
     $(b,chaos).  Turbo loopback only: two runs with the same seed are \
     byte-identical."
  in
  let c = Rt.Harness.chaos_soak in
  let sessions_arg =
    let doc = "Concurrent TFMCC sessions." in
    Arg.(value & opt int c.Rt.Harness.sessions & info [ "sessions" ] ~docv:"N" ~doc)
  in
  let receivers_arg =
    let doc = "Receivers per session (the CLR needs someone to fail over to)." in
    Arg.(value & opt int c.Rt.Harness.receivers & info [ "receivers" ] ~docv:"N" ~doc)
  in
  let duration_arg =
    let doc =
      "Run length in virtual loop-seconds.  Leave several seconds after the \
       last fault: recovery from the starvation decay is deliberately slow \
       (paper §4), and the convergence bar judges the final state."
    in
    Arg.(value & opt float c.Rt.Harness.duration & info [ "duration" ] ~docv:"SECONDS" ~doc)
  in
  let run sessions receivers duration impair rtt_initial seed json metrics_out =
    let cfg = { c.Rt.Harness.cfg with rtt_initial } in
    let plan = c.Rt.Harness.chaos in
    let sink = Obs.Sink.create () in
    let r =
      harness_run "chaos-rt" ~obs:sink (fun () ->
          { c with Rt.Harness.sessions; receivers; duration; impair = impair (); cfg; seed })
    in
    (match metrics_out with
    | Some file -> write_metrics_out ~file sink
    | None -> ());
    let ok_stats =
      List.filter_map
        (fun (_, o) -> match o with Par.Ok s -> Some s | _ -> None)
        r.Rt.Harness.outcomes
    in
    let conv =
      List.length (List.filter (Rt.Harness.converged ~cfg) ok_stats)
    in
    let ratio = float_of_int conv /. float_of_int sessions in
    let failovers =
      List.fold_left (fun a s -> a + s.Rt.Harness.failovers) 0 r.Rt.Harness.stats
    in
    let chaos_counts =
      Obs.Metrics.labelled_values sink.Obs.Sink.metrics
        "tfmcc_rt_chaos_events_total"
    in
    let rates = List.map (fun s -> s.Rt.Harness.rate) ok_stats in
    let rate_min = List.fold_left Float.min infinity rates in
    let rate_max = List.fold_left Float.max neg_infinity rates in
    let rate_mean =
      if rates = [] then 0.
      else List.fold_left ( +. ) 0. rates /. float_of_int (List.length rates)
    in
    (* Assertions: nothing escaped the session guards, the fleet
       converged despite the plan, and the CLR partition ran and the
       senders demonstrably failed over. *)
    let failures = ref [] in
    let check cond msg = if not cond then failures := msg :: !failures in
    check (r.Rt.Harness.loop_exceptions = 0)
      (Printf.sprintf "%d exception(s) hit the loop backstop"
         r.Rt.Harness.loop_exceptions);
    check (ratio >= min_converged)
      (Printf.sprintf "converged %d/%d (%.1f%% < %.1f%%)" conv sessions
         (100. *. ratio) (100. *. min_converged));
    check (r.Rt.Harness.clr_partitioned > 0) "CLR partition never fired";
    check (failovers > 0) "no CLR failover under partition";
    if json then
      print_endline
        (Obs.Json.to_string
           (Obs.Json.Obj
              [
                ("sessions", Obs.Json.Int sessions);
                ("receivers", Obs.Json.Int receivers);
                ("duration_s", Obs.Json.Float duration);
                ("seed", Obs.Json.Int seed);
                ("plan", Obs.Json.Str (Rt.Chaos.describe plan));
                ("timers_fired", Obs.Json.Int r.Rt.Harness.timers_fired);
                ("frames_sent", Obs.Json.Int r.Rt.Harness.frames_sent);
                ("frames_delivered", Obs.Json.Int r.Rt.Harness.frames_delivered);
                ("frames_lost", Obs.Json.Int r.Rt.Harness.frames_lost);
                ("frames_blocked", Obs.Json.Int r.Rt.Harness.frames_blocked);
                ("converged_sessions", Obs.Json.Int conv);
                ("converged_ratio", Obs.Json.Float ratio);
                ("clr_partitioned", Obs.Json.Int r.Rt.Harness.clr_partitioned);
                ("failovers", Obs.Json.Int failovers);
                ("crashes", Obs.Json.Int r.Rt.Harness.crashes);
                ("restarts", Obs.Json.Int r.Rt.Harness.restarts);
                ("stalls", Obs.Json.Int r.Rt.Harness.stalls);
                ("sessions_failed", Obs.Json.Int r.Rt.Harness.sessions_failed);
                ("loop_exceptions", Obs.Json.Int r.Rt.Harness.loop_exceptions);
                ( "chaos_events",
                  Obs.Json.Obj
                    (List.map
                       (fun (labels, v) ->
                         ( (match labels with
                           | [ (_, kind) ] -> kind
                           | _ -> "unknown"),
                           Obs.Json.Int v ))
                       chaos_counts) );
                ("rate_min", Obs.Json.Float rate_min);
                ("rate_mean", Obs.Json.Float rate_mean);
                ("rate_max", Obs.Json.Float rate_max);
                ( "outcomes",
                  Obs.Json.Arr
                    (List.map
                       (fun (sid, o) ->
                         Obs.Json.Obj
                           [
                             ("session", Obs.Json.Int sid);
                             ("outcome", Obs.Json.Str (Par.outcome_label o));
                             ( "converged",
                               Obs.Json.Bool
                                 (match o with
                                 | Par.Ok s -> Rt.Harness.converged s ~cfg
                                 | _ -> false) );
                           ])
                       r.Rt.Harness.outcomes) );
                ( "ok",
                  Obs.Json.Bool (!failures = []) );
              ]))
    else begin
      Printf.printf "chaos-rt: %d session(s) x %d receiver(s), %.1f loop-s, seed %d\n"
        sessions receivers duration seed;
      Printf.printf "plan: %s\n" (Rt.Chaos.describe plan);
      List.iter
        (function
          | Rt.Harness.Partition_clr { at; until } ->
              Printf.printf "faults: clr-partition %g..%gs (%d partitioned), kill-session off\n"
                at until r.Rt.Harness.clr_partitioned
          | _ -> ())
        c.Rt.Harness.faults;
      Printf.printf
        "frames: %d sent, %d delivered, %d lost, %d blocked (partition/flap)\n"
        r.Rt.Harness.frames_sent r.Rt.Harness.frames_delivered
        r.Rt.Harness.frames_lost r.Rt.Harness.frames_blocked;
      List.iter
        (fun (labels, v) ->
          match labels with
          | [ (_, kind) ] -> Printf.printf "chaos event: %-16s %d\n" kind v
          | _ -> ())
        chaos_counts;
      Printf.printf
        "supervision: %d crash(es), %d restart(s), %d stall(s), %d failed, %d \
         loop exception(s)\n"
        r.Rt.Harness.crashes r.Rt.Harness.restarts r.Rt.Harness.stalls
        r.Rt.Harness.sessions_failed r.Rt.Harness.loop_exceptions;
      Printf.printf
        "converged %d/%d (%.1f%%), %d CLR failover(s); rates (kbit/s) min \
         %.1f mean %.1f max %.1f\n"
        conv sessions (100. *. ratio) failovers
        (rate_min *. 8. /. 1000.)
        (rate_mean *. 8. /. 1000.)
        (rate_max *. 8. /. 1000.)
    end;
    Printf.eprintf "chaos-rt: %.2f wall-s\n%!" r.Rt.Harness.wall_s;
    if !failures <> [] then begin
      List.iter (Printf.eprintf "chaos-rt: FAIL: %s\n") (List.rev !failures);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "chaos-rt" ~doc)
    Term.(
      const run $ sessions_arg $ receivers_arg $ duration_arg $ impair_term
      $ rtt_initial_arg $ seed_arg $ json_arg $ metrics_out_arg)

let () =
  let doc = "TFMCC (SIGCOMM 2001) reproduction: experiment runner" in
  let info = Cmd.info "tfmcc-sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd; run_cmd; sweep_cmd; verify_golden_cmd;
            chaos_cmd; scatter_cmd; trace_cmd; dot_cmd; loopback_cmd;
            chaos_rt_cmd ]))
