(** Parallel experiment sweeps and multi-seed replication.

    Every experiment run is seed-deterministic and owns its engine, RNG
    and observability sink, so the (experiment × seed) grid fans out
    over a {!Par.Pool} with no shared mutable state.  Results come back
    in deterministic (registry, seed) order regardless of the job count:
    a [~jobs:8] sweep prints byte-identically to a [~jobs:1] one. *)

type replicate = { seed : int; series : Series.t list }

type result = {
  experiment : Registry.experiment;
  replicates : replicate list;  (** one per requested seed, in seed order *)
  aggregate : Series.t list option;
      (** Per-cell mean/stddev across seeds; [Some] only when at least
          two replicates exist and every seed produced shape-compatible
          series (same titles, labels and x columns). *)
}

val seeds : base:int -> count:int -> int list
(** [base; base+1; …; base+count-1].  Raises [Invalid_argument] when
    [count < 1]. *)

val run_one :
  ?strict:bool -> Registry.experiment -> mode:Scenario.mode -> seed:int ->
  replicate
(** Runs one experiment with a fresh private sink installed
    ({!Scenario.with_obs}), so concurrent runs never share metrics or
    journals.  With [strict] (default false) a fresh strict
    {!Check.Invariant} checker is installed too
    ({!Scenario.with_checks}); an invariant violation then raises
    {!Check.Invariant.Violation} out of this cell. *)

val aggregate : Series.t list list -> Series.t list option
(** Combine per-seed series lists (outer list = seeds, in seed order)
    into mean/stddev series: each y column [l] becomes [l mean] and
    [l sd] (sample stddev; NaN cells are skipped per point).  [None]
    when fewer than two replicates are given or any shapes disagree. *)

val run :
  ?experiments:Registry.experiment list ->
  ?strict:bool ->
  jobs:int ->
  mode:Scenario.mode ->
  seed:int ->
  ?seeds:int ->
  unit ->
  result list
(** Sweeps [experiments] (default {!Registry.all}) × [seeds] replicate
    seeds (default 1; seed list is [seed, seed+1, …]) as one flat task
    batch over [jobs] workers ({!Par.map_outcomes}; [jobs <= 1] runs
    serially in the calling domain).  Cells are submitted longest
    processing time first — descending measured per-experiment cost
    ({!Sweep_costs}) — so a multi-second figure does not start last and
    pin the sweep's tail on one domain.  The order moves wall-clock time
    only: results come back in input experiment order, byte-identical
    whatever [jobs].  [strict] (default false) runs every cell under a
    strict invariant checker ({!run_one}).  Every cell runs; if any
    raised, the exception of the grid-first failing cell (a violating
    cell's {!Check.Invariant.Violation}, say) is re-raised with its
    backtrace. *)

(** {1 Supervised sweeps (DESIGN.md §12)}

    {!run} has seed semantics: the lowest-indexed failing task's
    exception kills the whole sweep.  {!run_supervised} instead gives
    every (experiment × seed) cell its own supervised lifecycle —
    wall-clock timeout, stall/event-storm watchdog
    ({!Netsim.Watchdog}), retry with exponential backoff, per-task
    checkpointing — and always returns a complete {!report}: every
    successful figure's series plus one structured {!failure} per cell
    that exhausted its attempts.  Determinism is preserved: a
    supervised all-success sweep renders byte-identically to {!run},
    whatever [jobs], and a resumed sweep renders byte-identically to an
    uninterrupted one. *)

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
      (** the failing attempt's journal window, PR 5 strict-mode shape
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
  stall_events : int;
      (** abort after this many events without sim-time progress *)
  max_events : int option;  (** per-attempt total event budget *)
  checkpoint : string option;
      (** persist each completed task into this directory as it
          finishes ({!Checkpoint}) *)
  resume : bool;
      (** load valid checkpoints from [checkpoint] and skip those
          cells; requires [checkpoint] *)
  budget : int option;
      (** run at most this many (non-resumed) cells, skip the rest —
          deterministic mid-sweep interruption for resume tests *)
}

val default_policy : policy
(** No timeout, no retries, no checkpointing; 1M-event stall window. *)

type report = {
  results : result list;
      (** experiments with at least one successful replicate, in input
          order; aggregates cover the successful seeds only *)
  failures : failure list;  (** in (experiment, seed) grid order *)
  tasks : int;  (** total grid cells *)
  executed : int;  (** cells actually run (not resumed, not skipped) *)
  resumed : int;  (** cells satisfied from checkpoints *)
  skipped : int;  (** cells dropped by the task budget *)
  retried : int;  (** total extra attempts across all cells *)
}

val run_supervised :
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
(** Like {!run} but fault-tolerant (see above).  Each attempt gets a
    fresh sink, watchdog config and {!Scenario.with_attempt} number;
    the per-task {!Par.Control} is re-armed per attempt.  Completed
    tasks checkpoint before the sweep finishes, so a killed sweep
    resumes.  [obs] (default {!Obs.Sink.null}) receives sweep-level
    [sweep_task_*] counters and one journal [Task] entry per failed or
    skipped cell.  Cells run in the same costliest-first order as
    {!run}; the report — results, failures, counters — is in grid order
    and byte-identical whatever [jobs].  Raises [Invalid_argument] on nonsensical policies
    (negative retries/delay/budget, non-positive timeout, [resume]
    without [checkpoint]). *)

val exit_code : report -> int
(** The CLI contract: 0 all cells ok; 2 if any failure is a strict
    invariant {!Violation}; 3 if there are other failures or skipped
    cells. *)

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
    {"tasks", "executed", "resumed", "skipped", "retried", "failed",
    "exit_code"}}]. *)
