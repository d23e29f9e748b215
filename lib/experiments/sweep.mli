(** Running experiments: one cell at a time ({!run_cell}) or as a
    supervised, parallel sweep over an (experiment × seed) grid
    ({!run}; DESIGN.md §9, §12).

    Every experiment run is seed-deterministic and owns its engine, RNG
    and observability sink, so the grid fans out over a {!Par.Pool}
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
  ?watchdog:Netsim.Watchdog.config ->
  ?sink:Obs.Sink.t ->
  Registry.experiment ->
  mode:Scenario.mode ->
  seed:int ->
  Obs.Sink.t * Series.t list
(** The one way to run an experiment: runs it as one cell
    ({!Scenario.with_cell}) on [sink] (default a fresh one, so
    concurrent runs never share metrics or journals) and returns the
    sink with the series.  With [strict] (default false) a fresh strict
    {!Check.Invariant} checker rides along, and an invariant violation
    raises {!Check.Invariant.Violation} out of the cell.  With
    [watchdog] every engine the experiment builds is bounded by it.  A
    watchdog adds engine events, which the sink counts, so golden
    digests and the CLI's [run] run without one.  Pass [sink] to read
    the journal of a cell that raised. *)

(** {1 Supervised sweeps (DESIGN.md §12)}

    {!run} gives every (experiment × seed) cell its own supervised
    lifecycle — wall-clock timeout, stall/event-storm watchdog
    ({!Netsim.Watchdog}), retry with exponential backoff, per-task
    checkpointing — and always returns a complete {!report}: every
    successful figure's series plus one structured {!failure} per cell
    that exhausted its attempts.  A resumed sweep renders
    byte-identically to an uninterrupted one. *)

type cause =
  | Crashed  (** the experiment raised *)
  | Timeout  (** wall-clock deadline ({!policy.task_timeout}) *)
  | Stall  (** watchdog abort: livelock or event storm *)
  | Violation
      (** strict {!Check.Invariant.Violation} — deterministic, never
          retried *)

val cause_label : cause -> string
(** ["crashed" | "timeout" | "stalled" | "violation"]. *)

type failure = {
  f_experiment : string;
  f_seed : int;
  f_attempts : int;  (** attempts consumed (>= 1) *)
  f_cause : cause;
  f_detail : string;
  f_journal : string;
      (** the failing attempt's journal window, strict-mode shape
          ({!Check.Invariant.journal_window}) *)
}

type policy = {
  task_timeout : float option;
      (** per-attempt wall-clock budget in seconds; detection is
          cooperative (watchdog polls), so a task that schedules no
          events can overrun it *)
  retries : int;  (** extra attempts after the first (0 = fail fast) *)
  retry_delay : float;
      (** backoff before attempt [n+1] is [retry_delay * 2^(n-1)] s *)
  max_events : int option;  (** per-attempt total event budget *)
  checkpoint : string option;
      (** persist each completed task into this directory as it
          finishes ({!Checkpoint}) *)
  resume : bool;
      (** load valid checkpoints from [checkpoint] and skip those
          cells; requires [checkpoint] *)
}

val default_policy : policy
(** No timeout, no retries, no checkpointing, no event budget.  The
    watchdog's livelock window is {!Event_heap.livelock_events}. *)

type report = {
  results : result list;
      (** experiments with at least one successful replicate, in input
          order; aggregates cover the successful seeds only *)
  failures : failure list;  (** in (experiment, seed) grid order *)
  tasks : int;  (** total grid cells *)
  executed : int;  (** cells actually run (not resumed) *)
  resumed : int;  (** cells satisfied from checkpoints *)
  retried : int;  (** total extra attempts across all cells *)
}

val run :
  ?experiments:Registry.experiment list ->
  ?strict:bool ->
  ?policy:policy ->
  ?obs:Obs.Sink.t ->
  jobs:int ->
  mode:Scenario.mode ->
  seed:int ->
  ?seeds:int ->
  unit ->
  report
(** Sweeps [experiments] (default {!Registry.all}) × [seeds] replicate
    seeds (default 1; seed list is [seed, seed+1, …]) as one flat task
    batch over [jobs] workers ({!Par.map_outcomes}; [jobs <= 1] runs
    serially in the calling domain).  Each attempt is one {!run_cell}
    with a fresh sink and a watchdog config built from [policy]; the
    per-task {!Par.Control} is re-armed per attempt.  [strict] (default
    false) runs every cell under a strict invariant checker.

    Cells are submitted longest processing time first — descending
    measured per-experiment cost ({!Sweep_costs}) — so a multi-second
    figure does not start last and pin the sweep's tail on one domain.
    The order moves wall-clock time only: the report — results,
    failures, counters — is in grid order and byte-identical whatever
    [jobs].  Completed tasks checkpoint before the sweep finishes, so a
    killed sweep resumes.  [obs] (default {!Obs.Sink.null}) receives
    sweep-level [sweep_task_*] counters and one journal [Task] entry per
    failed cell.  Raises [Invalid_argument] on nonsensical policies
    (negative retries/delay, non-positive timeout, [resume] without
    [checkpoint]). *)

val exit_code : report -> int
(** The CLI contract: 0 all cells ok; 2 if any failure is a strict
    invariant {!Violation}; 3 if there are other failures. *)

val render : ?csv:bool -> ?replicates:bool -> seeds:int -> result list -> string
(** Exactly the bytes the CLI prints for a sweep: a
    ["--- figure: title ---"] header per experiment, then aggregate
    series (or per-seed replicates, with ["-- seed N --"] markers when
    [seeds > 1]).  Shared by `tfmcc-sim sweep` and the resume tests so
    byte-identity is checked against the real output format. *)

val render_failures : report -> string
(** Human-readable failure block (stderr material), one entry per
    {!failure} with its journal window. *)

val report_to_json : report -> Obs.Json.t
(** [{"results": …, "failures": [{"task", "experiment", "seed",
    "attempts", "cause", "detail", "journal_window"}…], "summary":
    {"tasks", "executed", "resumed", "retried", "failed",
    "exit_code"}}]. *)
