(** Running experiments: one cell at a time ({!run_cell}) or as a
    supervised, parallel sweep over an (experiment × seed) grid
    ({!run}; DESIGN.md §9, §12).

    Every experiment run is seed-deterministic and owns its engine, RNG
    and observability sink, so the grid fans out over {!Par.map_outcomes}
    with no shared mutable state.  Results come back in deterministic
    (experiment, seed) order regardless of the job count: a [~jobs:8]
    sweep prints byte-identically to a [~jobs:1] one. *)

type replicate = { seed : int; series : Series.t list }

type result = {
  experiment : Registry.experiment;
  replicates : replicate list;  (** one per successful seed, in seed order *)
  aggregate : Series.t list option;
      (** Per-cell mean/stddev across seeds: each y column [l] becomes
          [l mean] and [l sd] (sample stddev; NaN cells skipped).
          [Some] only when at least two replicates exist and every seed
          produced shape-compatible series (same titles, labels and x
          columns). *)
}

val run_cell :
  ?strict:bool ->
  Registry.experiment ->
  mode:Scenario.mode ->
  seed:int ->
  Obs.Sink.t * Series.t list
(** The one way to run an experiment: runs it as one cell
    ({!Scenario.with_cell}) on a fresh sink, so concurrent runs never
    share metrics or journals, and returns the sink with the series.
    With [strict] (default false) a fresh strict {!Check.Invariant}
    checker rides along, and an invariant violation raises
    {!Check.Invariant.Violation} out of the cell.  The cell runs without
    a watchdog: one adds engine events, which the sink counts, so golden
    digests and the CLI's [run] run without one; {!run}'s cells each
    have one. *)

(** {1 Supervised sweeps (DESIGN.md §12)}

    {!run} runs every (experiment × seed) cell exactly once under a
    wall-clock timeout and a stall/event-storm watchdog
    ({!Netsim.Watchdog}), and always returns a complete {!report}: every
    successful figure's series plus one structured {!failure} per cell
    that did not finish.  Cells are seed-deterministic, so a second
    attempt would repeat the first. *)

type cause =
  | Crashed  (** the experiment raised *)
  | Timeout  (** wall-clock deadline ({!policy.task_timeout}) *)
  | Stall  (** watchdog abort: livelock or event storm *)
  | Violation  (** strict {!Check.Invariant.Violation} *)

type failure = {
  f_experiment : string;
  f_seed : int;
  f_cause : cause;
  f_detail : string;
  f_journal : string;
      (** the failing cell's journal window, strict-mode shape
          ({!Check.Invariant.journal_window}) *)
}

type policy = {
  task_timeout : float option;
      (** per-cell wall-clock budget in seconds (finite, > 0); detection
          is cooperative (watchdog polls), so a task that schedules no
          events can overrun it *)
  max_events : int option;  (** per-cell total event budget (>= 1) *)
}

type report = {
  results : result list;
      (** experiments with at least one successful replicate, in input
          order; aggregates cover the successful seeds only *)
  failures : failure list;  (** in (experiment, seed) grid order *)
  tasks : int;  (** total grid cells *)
}

val run :
  ?experiments:Registry.experiment list ->
  ?strict:bool ->
  ?policy:policy ->
  jobs:int ->
  mode:Scenario.mode ->
  seed:int ->
  ?seeds:int ->
  unit ->
  report
(** Sweeps [experiments] (default {!Registry.all}) × [seeds] replicate
    seeds (default 1; seed list is [seed, seed+1, …]) as one flat task
    batch over [jobs] workers ({!Par.map_outcomes}; [jobs <= 1] runs
    serially in the calling domain), submitted in grid order.  Each
    cell is one {!run_cell} with a fresh sink and a watchdog bound to
    the task's {!Par.Control}, armed with [policy.task_timeout] when the
    task starts.  [strict] (default false) runs every cell under a
    strict invariant checker.

    The report — results, failures, counters — is in grid order and
    byte-identical whatever [jobs].  Raises [Invalid_argument], before any cell
    runs, when [seeds < 1], [task_timeout] is not finite and > 0, or
    [max_events < 1]. *)

val exit_code : report -> int
(** The CLI contract: 0 all cells ok; 2 if any failure is a strict
    invariant {!Violation}; 3 if there are other failures. *)

val render : ?csv:bool -> ?replicates:bool -> seeds:int -> result list -> string
(** Exactly the bytes the CLI prints for a sweep: a
    ["--- figure: title ---"] header per experiment, then aggregate
    series (or per-seed replicates, with ["-- seed N --"] markers when
    [seeds > 1]).  Shared by `tfmcc-sim sweep` and the determinism
    tests so byte-identity is checked against the real output format. *)

val render_failures : report -> string
(** Human-readable failure block (stderr material), one entry per
    {!failure} with its journal window. *)

val report_to_json : report -> Obs.Json.t
(** [{"results": …, "failures": [{"task", "experiment", "seed",
    "cause", "detail", "journal_window"}…], "summary": {"tasks",
    "failed", "exit_code"}}]. *)
