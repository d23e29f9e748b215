type replicate = { seed : int; series : Series.t list }

type result = {
  experiment : Registry.experiment;
  replicates : replicate list;
  aggregate : Series.t list option;
}

let run_cell_in ?(strict = false) ?watchdog ?(sink = Obs.Sink.create ())
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

let run_cell ?strict e ~mode ~seed = run_cell_in ?strict e ~mode ~seed

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
  f_cause : cause;
  f_detail : string;
  f_journal : string;
}

type policy = { task_timeout : float option; max_events : int option }

let default_policy = { task_timeout = None; max_events = None }

type report = { results : result list; failures : failure list; tasks : int }

type task_status = T_ok of replicate | T_failed of failure

let task_label f = Printf.sprintf "%s/s%d" f.f_experiment f.f_seed

let failure (e : Registry.experiment) ~seed ~journal exn =
  let cause, detail =
    match exn with
    | Check.Invariant.Violation msg -> (Violation, msg)
    | Par.Cancelled (Par.Timeout s) ->
        (Timeout, Printf.sprintf "wall-clock timeout after %gs" s)
    | Par.Cancelled (Par.Stall reason) -> (Stall, reason)
    | exn -> (Crashed, Printexc.to_string exn)
  in
  T_failed
    {
      f_experiment = e.Registry.id;
      f_seed = seed;
      f_cause = cause;
      f_detail = detail;
      f_journal = journal;
    }

(* One (experiment, seed) cell, run once under a fresh sink and a
   watchdog bound to the task's control, which {!Par.map_outcomes}
   armed with the policy's timeout when the task started.  Every
   exception becomes a structured failure carrying the cell's journal
   window. *)
let run_task ~strict ~policy (e : Registry.experiment) ~mode ~seed control =
  let sink = Obs.Sink.create () in
  let watchdog = { Netsim.Watchdog.control; max_events = policy.max_events } in
  match run_cell_in ~strict ~watchdog ~sink e ~mode ~seed with
  | _, series -> T_ok { seed; series }
  | exception exn ->
      failure e ~seed
        ~journal:(Check.Invariant.journal_window sink.Obs.Sink.journal)
        exn

let run ?(experiments = Registry.all) ?(strict = false)
    ?(policy = default_policy) ~jobs ~mode ~seed
    ?(seeds = 1) () =
  if seeds < 1 then invalid_arg "Sweep.run: seeds must be >= 1";
  (match policy.task_timeout with
  | Some t when not (Float.is_finite t && t > 0.) ->
      invalid_arg "Sweep.run: task_timeout must be finite and > 0"
  | _ -> ());
  (match policy.max_events with
  | Some n when n < 1 -> invalid_arg "Sweep.run: max_events must be >= 1"
  | _ -> ());
  let seed_list = List.init seeds (fun i -> seed + i) in
  let cells =
    List.concat_map (fun e -> List.map (fun s -> (e, s)) seed_list) experiments
  in
  let outcomes =
    Par.map_outcomes ~jobs ?timeout:policy.task_timeout
      (List.map
         (fun (e, s) control -> run_task ~strict ~policy e ~mode ~seed:s control)
         cells)
  in
  (* [run_task] catches every exception itself, so only a fault in the
     plumbing around [run_cell] comes back as a non-[Ok] outcome. *)
  let statuses =
    List.map2
      (fun (e, seed) o ->
        let lost exn = failure e ~seed ~journal:"(journal unavailable)\n" exn in
        match o with
        | Par.Ok st -> st
        | Par.Failed { exn; _ } -> lost exn
        | Par.Timed_out { after } -> lost (Par.Cancelled (Par.Timeout after))
        | Par.Stalled { reason } -> lost (Par.Cancelled (Par.Stall reason)))
      cells outcomes
  in
  let failures =
    List.filter_map (function T_failed f -> Some f | T_ok _ -> None) statuses
  in
  let results =
    List.concat
      (List.mapi
         (fun i experiment ->
           match
             List.filteri (fun j _ -> j / seeds = i) statuses
             |> List.filter_map (function
                  | T_ok rep -> Some rep
                  | T_failed _ -> None)
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
         experiments)
  in
  { results; failures; tasks = List.length cells }

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
      Printf.sprintf "sweep: task %s: invariant violation:\n%s\n"
        (task_label f) f.f_detail
  | _ ->
      Printf.sprintf
        "sweep: task %s failed (%s): %s\n\
         --- journal window (most recent entries) ---\n\
         %s"
        (task_label f) (cause_label f.f_cause) f.f_detail
        f.f_journal

let render_failures report =
  String.concat "" (List.map render_failure report.failures)

let failure_to_json f =
  Obs.Json.Obj
    [
      ("task", Obs.Json.Str (task_label f));
      ("experiment", Obs.Json.Str f.f_experiment);
      ("seed", Obs.Json.Int f.f_seed);
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
            ("failed", Obs.Json.Int (List.length report.failures));
            ("exit_code", Obs.Json.Int (exit_code report));
          ] );
    ]
