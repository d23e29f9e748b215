type replicate = { seed : int; series : Series.t list }

type result = {
  experiment : Registry.experiment;
  replicates : replicate list;
  aggregate : Series.t list option;
}

let run_cell ?(strict = false) ?watchdog ?(sink = Obs.Sink.create ())
    (e : Registry.experiment) ~mode ~seed =
  (* Fresh checker per cell: probes hold engine references, and a strict
     violation must abort exactly this (experiment, seed) cell with its
     own journal window. *)
  let checks =
    if strict then Some (Check.Invariant.create ~strict:true ()) else None
  in
  let series =
    Scenario.with_cell ?checks ?watchdog sink (fun () ->
        e.Registry.run ~mode ~seed)
  in
  (sink, series)

(* ------------------------------------------------------------ aggregate *)

let column_stats values =
  let finite = List.filter (fun v -> not (Float.is_nan v)) values in
  match finite with
  | [] -> (Float.nan, Float.nan)
  | _ ->
      let a = Array.of_list finite in
      (Stats.Descriptive.mean a, Stats.Descriptive.stddev a)

exception Shape_mismatch

(* One series position across all seeds -> a mean/sd series. *)
let aggregate_group (group : Series.t list) =
  let s0 = List.hd group in
  let compatible (s : Series.t) =
    s.Series.title = s0.Series.title
    && s.Series.xlabel = s0.Series.xlabel
    && s.Series.ylabels = s0.Series.ylabels
    && List.length s.Series.rows = List.length s0.Series.rows
    && List.for_all2
         (fun (x, _) (x0, _) -> Float.equal x x0)
         s.Series.rows s0.Series.rows
  in
  if not (List.for_all compatible group) then raise Shape_mismatch;
  let ylabels =
    List.concat_map (fun l -> [ l ^ " mean"; l ^ " sd" ]) s0.Series.ylabels
  in
  let n_cols = List.length s0.Series.ylabels in
  let rows =
    List.mapi
      (fun ri (x, _) ->
        let cells =
          List.concat_map
            (fun ci ->
              let values =
                List.map
                  (fun (s : Series.t) ->
                    let _, ys = List.nth s.Series.rows ri in
                    List.nth ys ci)
                  group
              in
              let mean, sd = column_stats values in
              [ mean; sd ])
            (List.init n_cols Fun.id)
        in
        (x, cells))
      s0.Series.rows
  in
  let note =
    Printf.sprintf "per-cell mean and sample stddev over %d seeds"
      (List.length group)
  in
  Series.make ~title:s0.Series.title ~xlabel:s0.Series.xlabel ~ylabels
    ~notes:(s0.Series.notes @ [ note ])
    rows

let aggregate per_seed =
  match per_seed with
  | [] | [ _ ] -> None
  | first :: rest ->
      let n_series = List.length first in
      if List.exists (fun l -> List.length l <> n_series) rest then None
      else begin
        try
          Some
            (List.mapi
               (fun i _ -> aggregate_group (List.map (fun l -> List.nth l i) per_seed))
               first)
        with Shape_mismatch -> None
      end

(* ---------------------------------------------------------- task order *)

(* LPT (longest processing time first) permutation over task slots:
   [order.(k)] is the original index of the k-th task to submit.
   Descending measured cost ({!Sweep_costs}), ties broken by original
   index, so the permutation is a pure function of the task list — no
   clocks, no racing. *)
let lpt_order ids =
  let n = Array.length ids in
  let cost = Array.map Sweep_costs.cost ids in
  let order = Array.init n Fun.id in
  Array.sort
    (fun i j -> match compare cost.(j) cost.(i) with 0 -> compare i j | c -> c)
    order;
  order

(* Submit [(id, task)] cells costliest-first and hand the outcomes back
   in grid order: the permutation moves wall-clock time around, never
   bytes.  [id] names the cell's experiment for the cost lookup. *)
let lpt_map_outcomes ~jobs cells =
  let cells = Array.of_list cells in
  let order = lpt_order (Array.map fst cells) in
  let submitted =
    Par.map_outcomes ~jobs
      (Array.to_list (Array.map (fun i -> snd cells.(i)) order))
  in
  let outcomes = Array.of_list submitted in
  List.iteri (fun k o -> outcomes.(order.(k)) <- o) submitted;
  Array.to_list outcomes

let rec chunk n = function
  | [] -> []
  | l ->
      let rec take k acc = function
        | rest when k = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | x :: rest -> take (k - 1) (x :: acc) rest
      in
      let head, rest = take n [] l in
      head :: chunk n rest

(* ------------------------------------------------------- supervision *)

type cause = Crashed | Timeout | Stall | Violation

let cause_label = function
  | Crashed -> "crashed"
  | Timeout -> "timeout"
  | Stall -> "stalled"
  | Violation -> "violation"

type failure = {
  f_experiment : string;
  f_seed : int;
  f_attempts : int;
  f_cause : cause;
  f_detail : string;
  f_journal : string;
}

type policy = {
  task_timeout : float option;
  retries : int;
  retry_delay : float;
  max_events : int option;
  checkpoint : string option;
  resume : bool;
}

let default_policy =
  {
    task_timeout = None;
    retries = 0;
    retry_delay = 0.;
    max_events = None;
    checkpoint = None;
    resume = false;
  }

type report = {
  results : result list;
  failures : failure list;
  tasks : int;
  executed : int;
  resumed : int;
  retried : int;
}

type task_status = T_ok of replicate * int | T_failed of failure

let task_label f = Checkpoint.task_name ~experiment:f.f_experiment ~seed:f.f_seed

(* One attempt of one (experiment, seed) cell: re-arm the task's control
   (fresh deadline, cleared cancellation), then run the cell under a
   fresh sink and watchdog config.  Everything the attempt observes is
   attempt-local, so a retry is indistinguishable from a first try. *)
let attempt_cell ~strict ~policy ~control ~attempt (e : Registry.experiment)
    ~mode ~seed =
  Par.Control.arm control ?timeout:policy.task_timeout ();
  let sink = Obs.Sink.create () in
  let watchdog = { Netsim.Watchdog.control; max_events = policy.max_events } in
  match run_cell ~strict ~watchdog ~sink e ~mode ~seed with
  | _, series -> Ok { seed; series }
  | exception exn ->
      let cause, detail =
        match exn with
        | Check.Invariant.Violation msg -> (Violation, msg)
        | Par.Cancelled (Par.Timeout s) ->
            (Timeout, Printf.sprintf "wall-clock timeout after %gs" s)
        | Par.Cancelled (Par.Stall reason) -> (Stall, reason)
        | exn -> (Crashed, Printexc.to_string exn)
      in
      Error
        {
          f_experiment = e.Registry.id;
          f_seed = seed;
          f_attempts = attempt;
          f_cause = cause;
          f_detail = detail;
          f_journal = Check.Invariant.journal_window sink.Obs.Sink.journal;
        }

let retryable = function Crashed | Timeout | Stall -> true | Violation -> false

(* The whole retry loop runs inside the worker task, so the pool sees one
   outcome per task whatever the attempt count.  Invariant violations are
   deterministic (same seed, same series) and are never retried.  A
   successful attempt checkpoints immediately — before the sweep as a
   whole finishes — which is what makes --resume after a mid-sweep kill
   work. *)
let run_task ~strict ~policy (e : Registry.experiment) ~mode ~seed control =
  let rec go attempt =
    match attempt_cell ~strict ~policy ~control ~attempt e ~mode ~seed with
    | Ok rep ->
        (match policy.checkpoint with
        | Some dir ->
            Checkpoint.save ~dir
              (Checkpoint.make ~experiment:e.Registry.id ~seed rep.series)
        | None -> ());
        T_ok (rep, attempt)
    | Error f ->
        if attempt <= policy.retries && retryable f.f_cause then begin
          if policy.retry_delay > 0. then
            Unix.sleepf (policy.retry_delay *. (2. ** float_of_int (attempt - 1)));
          go (attempt + 1)
        end
        else T_failed f
  in
  go 1

(* Defensive only: [run_task] catches every exception itself, so the
   pool-level outcome is [Ok] unless the supervisor plumbing raised. *)
let pool_failure (e : Registry.experiment) seed cause detail =
  T_failed
    {
      f_experiment = e.Registry.id;
      f_seed = seed;
      f_attempts = 0;
      f_cause = cause;
      f_detail = detail;
      f_journal = "(journal unavailable)\n";
    }

let run ?(experiments = Registry.all) ?(strict = false)
    ?(policy = default_policy) ?(obs = Obs.Sink.null) ~jobs ~mode ~seed
    ?(seeds = 1) () =
  if seeds < 1 then invalid_arg "Sweep.run: seeds must be >= 1";
  if policy.retries < 0 then invalid_arg "Sweep.run: retries must be >= 0";
  if policy.retry_delay < 0. then
    invalid_arg "Sweep.run: retry_delay must be >= 0";
  (match policy.task_timeout with
  | Some t when t <= 0. -> invalid_arg "Sweep.run: task_timeout must be > 0"
  | _ -> ());
  if policy.resume && policy.checkpoint = None then
    invalid_arg "Sweep.run: resume requires a checkpoint directory";
  let seed_list = List.init seeds (fun i -> seed + i) in
  (* Resume pass (coordinator-side, before any fan-out): a cell with a
     valid checkpoint is satisfied from disk. *)
  let cells =
    List.concat_map
      (fun e ->
        List.map
          (fun s ->
            match policy.checkpoint with
            | Some dir when policy.resume ->
                (e, s, Checkpoint.load ~dir ~experiment:e.Registry.id ~seed:s)
            | _ -> (e, s, None))
          seed_list)
      experiments
  in
  let to_run =
    List.filter_map
      (fun (e, s, resumed) -> if Option.is_none resumed then Some (e, s) else None)
      cells
  in
  let outcomes =
    ref
      (lpt_map_outcomes ~jobs
         (List.map
            (fun (e, s) ->
              ( e.Registry.id,
                fun control -> run_task ~strict ~policy e ~mode ~seed:s control ))
            to_run))
  in
  (* Stitch pool outcomes back into grid order; [lpt_map_outcomes]
     returns slots in [to_run] order whatever the submission
     permutation, so one pass over [cells] consumes them in sequence. *)
  let statuses =
    List.map
      (fun (e, s, resumed) ->
        match resumed with
        | Some entry -> T_ok ({ seed = s; series = entry.Checkpoint.c_series }, 0)
        | None -> (
            let o = List.hd !outcomes in
            outcomes := List.tl !outcomes;
            match o with
            | Par.Ok st -> st
            | Par.Failed { exn; _ } ->
                pool_failure e s Crashed ("supervisor: " ^ Printexc.to_string exn)
            | Par.Timed_out { after } ->
                pool_failure e s Timeout
                  (Printf.sprintf "wall-clock timeout after %gs" after)
            | Par.Stalled { reason } -> pool_failure e s Stall reason))
      cells
  in
  let failures =
    List.filter_map (function T_failed f -> Some f | T_ok _ -> None) statuses
  in
  let executed = List.length to_run in
  let resumed = List.length cells - executed in
  let retried =
    List.fold_left
      (fun acc st ->
        match st with
        | T_ok (_, a) when a > 1 -> acc + (a - 1)
        | T_failed f when f.f_attempts > 1 -> acc + (f.f_attempts - 1)
        | _ -> acc)
      0 statuses
  in
  (* Sweep-level observability: counters plus one journal Task entry per
     failed task, recorded into the coordinator's sink (default null). *)
  let m = obs.Obs.Sink.metrics in
  let bump ?labels name n =
    if n > 0 then Obs.Metrics.Counter.add (Obs.Metrics.counter m ?labels name) n
  in
  bump "sweep_tasks_total" (List.length cells);
  bump "sweep_task_ok_total" (executed - List.length failures);
  bump "sweep_task_resumed_total" resumed;
  bump "sweep_task_retried_total" retried;
  List.iter
    (fun f ->
      bump ~labels:[ ("cause", cause_label f.f_cause) ] "sweep_task_failed_total"
        1;
      Obs.Sink.event obs ~time:0. ~severity:Obs.Journal.Error
        (Obs.Journal.scope "sweep")
        (Obs.Journal.Task
           {
             id = task_label f;
             outcome = cause_label f.f_cause;
             attempts = f.f_attempts;
             detail = f.f_detail;
           }))
    failures;
  let results =
    List.concat
      (List.map2
         (fun experiment group ->
           match
             List.filter_map
               (function T_ok (rep, _) -> Some rep | T_failed _ -> None)
               group
           with
           | [] -> []
           | reps ->
               [
                 {
                   experiment;
                   replicates = reps;
                   aggregate = aggregate (List.map (fun r -> r.series) reps);
                 };
               ])
         experiments (chunk seeds statuses))
  in
  { results; failures; tasks = List.length cells; executed; resumed; retried }

(* -------------------------------------------------------- reporting *)

let exit_code report =
  if List.exists (fun f -> f.f_cause = Violation) report.failures then 2
  else if report.failures <> [] then 3
  else 0

let render ?(csv = false) ?(replicates = false) ~seeds results =
  let buf = Buffer.create (64 * 1024) in
  let add_series s =
    if csv then Buffer.add_string buf (Series.to_csv s)
    else Buffer.add_string buf (Format.asprintf "%a@." Series.pp s)
  in
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "--- %s: %s ---\n" r.experiment.Registry.figure
           r.experiment.Registry.title);
      let add_replicates () =
        List.iter
          (fun rep ->
            if seeds > 1 then
              Buffer.add_string buf (Printf.sprintf "-- seed %d --\n" rep.seed);
            List.iter add_series rep.series)
          r.replicates
      in
      match r.aggregate with
      | Some agg ->
          if replicates then add_replicates ();
          List.iter add_series agg
      | None -> add_replicates ())
    results;
  Buffer.contents buf

let render_failure f =
  match f.f_cause with
  | Violation ->
      (* The Violation message already carries its own journal window
         (the PR 5 strict-mode shape); don't print it twice. *)
      Printf.sprintf "sweep: task %s: invariant violation (attempt %d):\n%s\n"
        (task_label f) f.f_attempts f.f_detail
  | _ ->
      Printf.sprintf
        "sweep: task %s failed (%s) after %d attempt(s): %s\n\
         --- journal window (most recent entries) ---\n\
         %s"
        (task_label f) (cause_label f.f_cause) f.f_attempts f.f_detail
        f.f_journal

let render_failures report =
  String.concat "" (List.map render_failure report.failures)

let failure_to_json f =
  Obs.Json.Obj
    [
      ("task", Obs.Json.Str (task_label f));
      ("experiment", Obs.Json.Str f.f_experiment);
      ("seed", Obs.Json.Int f.f_seed);
      ("attempts", Obs.Json.Int f.f_attempts);
      ("cause", Obs.Json.Str (cause_label f.f_cause));
      ("detail", Obs.Json.Str f.f_detail);
      ("journal_window", Obs.Json.Str f.f_journal);
    ]

let result_to_json r =
  Obs.Json.Obj
    [
      ("id", Obs.Json.Str r.experiment.Registry.id);
      ("figure", Obs.Json.Str r.experiment.Registry.figure);
      ("title", Obs.Json.Str r.experiment.Registry.title);
      ( "replicates",
        Obs.Json.Arr
          (List.map
             (fun rep ->
               Obs.Json.Obj
                 [
                   ("seed", Obs.Json.Int rep.seed);
                   ( "series",
                     Obs.Json.Arr (List.map Series.to_json rep.series) );
                 ])
             r.replicates) );
      ( "aggregate",
        match r.aggregate with
        | None -> Obs.Json.Null
        | Some a -> Obs.Json.Arr (List.map Series.to_json a) );
    ]

let report_to_json report =
  Obs.Json.Obj
    [
      ("results", Obs.Json.Arr (List.map result_to_json report.results));
      ("failures", Obs.Json.Arr (List.map failure_to_json report.failures));
      ( "summary",
        Obs.Json.Obj
          [
            ("tasks", Obs.Json.Int report.tasks);
            ("executed", Obs.Json.Int report.executed);
            ("resumed", Obs.Json.Int report.resumed);
            ("retried", Obs.Json.Int report.retried);
            ("failed", Obs.Json.Int (List.length report.failures));
            ("exit_code", Obs.Json.Int (exit_code report));
          ] );
    ]
