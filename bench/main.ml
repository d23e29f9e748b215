(* Benchmark harness.

   Two sections:
   1. Bechamel micro-benchmarks of the hot primitives (event queue, PRNG,
      control equation, WALI update, feedback-timer draw, and the cost of
      one simulated second of a live TFMCC session).
   2. The full experiment sweep: one harness per figure of the paper,
      printing the series the figure plots (quick scale by default;
      `--full` for the paper-scale parameters). *)

let full_mode = Array.exists (fun a -> a = "--full") Sys.argv

let micro_only = Array.exists (fun a -> a = "--micro-only") Sys.argv

let figures_only = Array.exists (fun a -> a = "--figures-only") Sys.argv

(* `-j N`: also run the figure sweep fanned out over N domains and record
   its wall clock next to the serial one. *)
let jobs =
  let rec find i =
    if i >= Array.length Sys.argv then 1
    else if Sys.argv.(i) = "-j" && i + 1 < Array.length Sys.argv then
      match int_of_string_opt Sys.argv.(i + 1) with
      | Some j when j >= 1 -> j
      | _ -> failwith "bench: -j expects a positive integer"
    else find (i + 1)
  in
  find 1

(* ------------------------------------------------------ micro-benchmarks *)

let bench_event_heap () =
  let h = Netsim.Event_heap.create () in
  for i = 0 to 255 do
    ignore (Netsim.Event_heap.add h ~time:(float_of_int ((i * 7919) mod 1009)) ignore)
  done;
  let rec drain () = match Netsim.Event_heap.pop h with Some _ -> drain () | None -> () in
  drain ()

let bench_rng =
  let rng = Stats.Rng.create 1 in
  fun () -> ignore (Stats.Rng.uniform rng)

let bench_padhye () = ignore (Tcp_model.Padhye.throughput ~s:1000 ~rtt:0.1 0.01)

let bench_padhye_inverse () =
  ignore (Tcp_model.Padhye.inverse_loss ~s:1000 ~rtt:0.1 125_000.)

let bench_wali =
  let h = Tfrc.Loss_history.create () in
  let seq = ref 0 and now = ref 0. in
  fun () ->
    (* every 50th packet lost *)
    incr seq;
    if !seq mod 50 = 0 then incr seq;
    now := !now +. 0.01;
    Tfrc.Loss_history.on_packet h ~seq:!seq ~now:!now ~rtt:0.05;
    ignore (Tfrc.Loss_history.loss_event_rate h)

let bench_timer_draw =
  let rng = Stats.Rng.create 2 in
  fun () ->
    ignore
      (Tfmcc_core.Feedback_timer.draw rng ~bias:Tfmcc_core.Config.Modified_offset
         ~t_max:3. ~delta:(1. /. 3.) ~n_estimate:10_000 ~ratio:0.7)

let bench_expected_messages () =
  ignore
    (Tfmcc_core.Feedback_timer.expected_messages ~n:1000 ~n_estimate:10_000
       ~delay:1. ~t_suppress:4.)

let bench_feedback_round =
  let rng = Stats.Rng.create 3 in
  let params =
    {
      Tfmcc_core.Feedback_process.n_estimate = 10_000;
      t_max = 6.;
      delay = 1.;
      bias = Tfmcc_core.Config.Modified_offset;
      delta = 1. /. 3.;
      cancel = Tfmcc_core.Feedback_process.Rate_threshold 0.1;
    }
  in
  fun () ->
    let values = Tfmcc_core.Feedback_process.uniform_values rng ~n:100 ~lo:0.3 ~hi:0.9 in
    ignore (Tfmcc_core.Feedback_process.run_round rng params ~values)

(* One simulated second of a live 4-receiver TFMCC session at ~1 Mbit/s:
   the end-to-end cost of the whole stack.  The null sink keeps the
   number comparable with pre-observability baselines; the second
   variant runs the identical session with collection enabled, so the
   pair bounds the cost of the observability layer itself. *)
let simulated_second_session ~obs =
  let st =
    Experiments.Scenario.star ~seed:77 ~obs ~link_bps:1e6
      ~link_delays:(Array.make 4 0.02) ()
  in
  Tfmcc_core.Session.start st.Experiments.Scenario.s_session ~at:0.;
  Experiments.Scenario.run_until st.Experiments.Scenario.s_sc 30.;
  let now = ref 30. in
  fun () ->
    now := !now +. 1.;
    Experiments.Scenario.run_until st.Experiments.Scenario.s_sc !now

let bench_simulated_second = simulated_second_session ~obs:Obs.Sink.null

let bench_simulated_second_obs =
  simulated_second_session ~obs:(Obs.Sink.create ())

let bench_jain =
  let rng = Stats.Rng.create 5 in
  let xs = Array.init 64 (fun _ -> Stats.Rng.uniform rng) in
  fun () -> ignore (Stats.Descriptive.jain_index xs)

let bench_trace_event =
  let tr = Netsim.Trace.create ~capacity:1024 () in
  let e = Netsim.Engine.create () in
  let topo = Netsim.Topology.create e in
  let a = Netsim.Topology.add_node topo in
  let b = Netsim.Topology.add_node topo in
  let ab, _ = Netsim.Topology.connect topo ~bandwidth_bps:1e6 ~delay_s:0.001 a b in
  Netsim.Trace.attach tr ab;
  let p =
    Netsim.Packet.make ~flow:1 ~size:100 ~src:0 ~dst:(Netsim.Packet.Unicast 1)
      ~created:0. (Netsim.Packet.Raw 0)
  in
  fun () ->
    (* The packet is reused across iterations, so reset its hop count:
       otherwise after [Packet.ttl_limit] iterations every send takes the
       TTL-drop path and the bench stops measuring the tx+deliver pair it
       is named for. *)
    Netsim.Packet.set_hops p 0;
    Netsim.Link.send ab p;
    Netsim.Engine.run e

let bench_topo_gen () =
  let e = Netsim.Engine.create () in
  let topo = Netsim.Topology.create e in
  let rng = Stats.Rng.create 6 in
  ignore
    (Netsim.Topo_gen.transit_stub topo rng ~transits:3 ~stubs_per_transit:2
       ~hosts_per_stub:3 ())

let bench_layered_second =
  let e = Netsim.Engine.create ~seed:7 () in
  let topo = Netsim.Topology.create e in
  let sender = Netsim.Topology.add_node topo in
  let rx = Netsim.Topology.add_node topo in
  ignore (Netsim.Topology.connect topo ~bandwidth_bps:1e6 ~delay_s:0.02 sender rx);
  let snd = Layered.Sender.create topo ~session:1 ~node:sender () in
  let r = Layered.Receiver.create topo ~session:1 ~node:rx () in
  Layered.Receiver.join r;
  Layered.Sender.start snd ~at:0.;
  Netsim.Engine.run ~until:10. e;
  let now = ref 10. in
  fun () ->
    now := !now +. 1.;
    Netsim.Engine.run ~until:!now e

(* One simulated second of a live 4-receiver TFMCC session hosted on the
   real-time runtime (turbo clock, loopback fabric, 1% loss): the
   end-to-end rt cost to hold against "full stack: 1 simulated second"
   above, which runs the identical protocol over the simulator.

   With [chaos], the plan is applied to the fabric before the warm-up.
   The "+chaos" variant applies a plan whose only event lies far beyond
   the measured window, so the pair quantifies the per-frame cost of the
   chaos hooks on the fabric send path (fabric_up check +
   blocked-endpoint guard) when no impairment is active — the bench
   guard holds the two keys to the same relative tolerance, so an
   idle-overhead regression fails CI. *)
let rt_simulated_second ?chaos () =
  let loop = Rt.Loop.create ~seed:77 () in
  let net =
    Rt.Net.create loop
      ~impair:(Rt.Net.impairment ~loss:0.01 ~delay:0.02 ~warmup:2. ())
      ()
  in
  let cfg = Tfmcc_core.Config.default in
  let s_ep = Rt.Net.endpoint net ~session:1 in
  let rx_eps = List.init 4 (fun _ -> Rt.Net.endpoint net ~session:1) in
  let s =
    Tfmcc_core.Session.create ~sender_env:(Rt.Net.env s_ep) ~cfg ~session:1
      ~receiver_envs:(List.map Rt.Net.env rx_eps) ()
  in
  let snd = Tfmcc_core.Session.sender s in
  Rt.Net.set_deliver s_ep (fun ~size:_ msg -> Tfmcc_core.Sender.deliver snd msg);
  List.iter2
    (fun ep r ->
      Rt.Net.set_deliver ep (fun ~size msg ->
          Tfmcc_core.Receiver.deliver r ~size msg))
    rx_eps
    (Tfmcc_core.Session.receivers s);
  Tfmcc_core.Session.start s ~at:0.;
  Option.iter (fun plan -> ignore (Rt.Chaos.apply net plan)) chaos;
  Rt.Loop.run ~until:30. loop;
  let now = ref 30. in
  fun () ->
    now := !now +. 1.;
    Rt.Loop.run ~until:!now loop

let bench_rt_simulated_second = rt_simulated_second ()

let bench_rt_simulated_second_chaos =
  rt_simulated_second
    ~chaos:[ Rt.Chaos.Flap { down_at = 1e6; up_at = 1e6 +. 1. } ]
    ()

(* Allocation rate of the full stack, measured directly rather than via
   bechamel (we count words, not nanoseconds): minor-heap words allocated
   per simulated second of the same warmed-up star session as "full
   stack: 1 simulated second".  This is the number the zero-alloc engine
   work (packet arena, unboxed heap keys) drives down;
   wall-clock benchmarks alone can hide an allocation regression behind
   CPU noise, and minor words are exactly reproducible. *)
let measure_minor_words_per_simsec () =
  let step = simulated_second_session ~obs:Obs.Sink.null in
  (* One settling step so any remaining lazy initialization (table
     growth, pool warm-up) lands outside the measured window. *)
  step ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 60 do
    step ()
  done;
  let w1 = Gc.minor_words () in
  (w1 -. w0) /. 60.

let micro_tests =
  let t name fn = Bechamel.Test.make ~name (Bechamel.Staged.stage fn) in
  [
    t "event_heap: 256 add+pop" bench_event_heap;
    t "rng: uniform draw" bench_rng;
    t "padhye: throughput" bench_padhye;
    t "padhye: inverse (bisection)" bench_padhye_inverse;
    t "wali: packet + rate query" bench_wali;
    t "feedback timer: one draw" bench_timer_draw;
    t "E[M]: numerical integral" bench_expected_messages;
    t "feedback round: 100 receivers" bench_feedback_round;
    t "jain index: 64 flows" bench_jain;
    t "trace: tx+deliver event pair" bench_trace_event;
    t "topo_gen: 27-node transit-stub" bench_topo_gen;
    t "layered: 1 simulated second" bench_layered_second;
    t "full stack: 1 simulated second" bench_simulated_second;
    t "full stack +obs: 1 simulated second" bench_simulated_second_obs;
    t "rt loopback: 1 simulated second" bench_rt_simulated_second;
    t "rt loopback +chaos: 1 simulated second" bench_rt_simulated_second_chaos;
  ]

let results_file = "BENCH_results.json"

(* Flat name -> ns object, machine-readable for CI trend tracking.
   Sections of the harness run in separate invocations (--micro-only,
   --figures-only), so merge into whatever the file already holds
   instead of clobbering it: existing keys are kept unless this run
   re-measured them. *)
let write_results results =
  let fields = List.rev_map (fun (name, ns) -> (name, Obs.Json.Float ns)) results in
  let existing =
    if not (Sys.file_exists results_file) then []
    else begin
      let ic = open_in_bin results_file in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Obs.Json.of_string text with
      | Ok (Obs.Json.Obj old) ->
          List.filter (fun (k, _) -> not (List.mem_assoc k fields)) old
      | Ok _ | Error _ -> []
    end
  in
  let fields = existing @ fields in
  let oc = open_out results_file in
  output_string oc (Obs.Json.to_string (Obs.Json.Obj fields));
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%d entries)\n%!" results_file (List.length fields)

let run_micro () =
  print_endline "=== Micro-benchmarks (Bechamel, monotonic clock) ===";
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let collected = ref [] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"" [ test ]) in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some [ e ] ->
                collected := (name, e) :: !collected;
                Printf.sprintf "%12.1f ns/run" e
            | _ -> "(no estimate)"
          in
          Printf.printf "%-40s %s\n%!" name estimate)
        analyzed)
    micro_tests;
  let alloc = measure_minor_words_per_simsec () in
  Printf.printf "%-40s %12.1f minor words/simsec\n%!"
    "full stack: minor words/simsec" alloc;
  collected := ("full stack: minor words/simsec", alloc) :: !collected;
  write_results !collected

(* ------------------------------------------------------ figure harnesses *)

(* The macro path of the perf trajectory: the serial pass prints every
   figure's series and records its wall clock; with [-j N] a second,
   silent pass runs the identical sweep fanned out over N domains so
   BENCH_results.json carries both ends of the speedup. *)
let run_figures () =
  let mode = if full_mode then Experiments.Scenario.Full else Experiments.Scenario.Quick in
  Printf.printf "=== Paper figures (%s scale) ===\n%!"
    (if full_mode then "full" else "quick");
  let timings = ref [] in
  let record name ns = timings := (name, ns) :: !timings in
  let t_serial0 = Unix.gettimeofday () in
  List.iter
    (fun e ->
      let t0 = Unix.gettimeofday () in
      let series = e.Experiments.Registry.run ~mode ~seed:42 in
      let dt = Unix.gettimeofday () -. t0 in
      record (Printf.sprintf "sweep %s: wall" e.Experiments.Registry.id) (dt *. 1e9);
      Printf.printf "--- %s: %s (%.1fs) ---\n%!" e.Experiments.Registry.figure
        e.Experiments.Registry.title dt;
      List.iter (fun s -> Format.printf "%a@." Experiments.Series.pp s) series)
    Experiments.Registry.all;
  let serial_wall = Unix.gettimeofday () -. t_serial0 in
  (* The per-figure dts above exclude the stdout pretty-printing of each
     figure's series, but [serial_wall] includes it — and the parallel
     pass below prints nothing.  Comparing the parallel wall against the
     print-inclusive total mis-attributed rendering I/O to "serial
     compute" and could make a -j 2 sweep look slower than serial.  The
     speedup baseline is therefore the compute-only sum; the inclusive
     number is still recorded separately. *)
  let figure_cost id =
    match List.assoc_opt (Printf.sprintf "sweep %s: wall" id) !timings with
    | Some ns -> ns
    | None -> 0.
  in
  let serial_compute =
    List.fold_left
      (fun acc e -> acc +. figure_cost e.Experiments.Registry.id)
      0. Experiments.Registry.all
    /. 1e9
  in
  record "sweep: serial total wall" (serial_compute *. 1e9);
  record "sweep: serial total wall incl. printing" (serial_wall *. 1e9);
  Printf.printf "sweep (serial): %.1fs compute (%.1fs incl. printing)\n%!"
    serial_compute serial_wall;
  if jobs > 1 then begin
    (* [Sweep.run] submits costliest-first itself, so the parallel pass
       sweeps the registry in its own order. *)
    let t0 = Unix.gettimeofday () in
    ignore (Experiments.Sweep.run ~jobs ~mode ~seed:42 () : _ list);
    let parallel_wall = Unix.gettimeofday () -. t0 in
    record "sweep: parallel total wall" (parallel_wall *. 1e9);
    record "sweep: parallel jobs" (float_of_int jobs);
    record "sweep: parallel speedup"
      (if parallel_wall > 0. then serial_compute /. parallel_wall else 0.);
    (* A speedup below 1 with jobs > cores is not a regression: extra
       domains on an oversubscribed machine only add stop-the-world GC
       synchronization.  Record the hardware limit so trend tooling can
       tell "pool got slower" apart from "ran on a smaller box". *)
    let cores = Domain.recommended_domain_count () in
    record "sweep: recommended domains" (float_of_int cores);
    Printf.printf "sweep (-j %d): %.1fs wall (%.2fx vs serial compute)%s\n%!"
      jobs parallel_wall
      (if parallel_wall > 0. then serial_compute /. parallel_wall else 0.)
      (if jobs > cores then
         Printf.sprintf " [oversubscribed: %d domain(s) on %d core(s)]" jobs
           cores
       else "")
  end;
  (* Oldest-first, like the micro section. *)
  write_results !timings

let () =
  if not figures_only then run_micro ();
  if not micro_only then run_figures ()
