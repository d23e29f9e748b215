(** Golden-trace regression: a per-figure digest of everything an
    experiment produces (every series rendered to CSV, plus the full
    observability sink as JSON), checked into [test/golden/digests.txt]
    and verified by [tfmcc-sim verify-golden].

    The digests lean on the determinism contract: a (figure, mode, seed)
    cell is a pure function of its inputs, byte-identical between serial
    and [-j N] sweeps, so any digest change is a behavioural change —
    intended (regenerate with [--regen]) or a regression (fix it). *)

val digest_experiment :
  Registry.experiment -> mode:Scenario.mode -> seed:int -> string
(** Runs the experiment as one cell ({!Sweep.run_cell}: fresh sink, no
    checker, no watchdog) and returns the 16-hex FNV-1a digest of its
    id, series CSVs and sink JSON. *)

val compute :
  ?experiments:Registry.experiment list ->
  jobs:int ->
  mode:Scenario.mode ->
  seed:int ->
  unit ->
  (string * string) list
(** Digests for [experiments] (default {!Registry.all}) computed as one
    {!Par.map} batch, in registry order: [(id, digest)] pairs. *)

val to_file_format : (string * string) list -> string
(** One ["id digest\n"] line per pair (the checked-in file format). *)

val parse_file_format : string -> (string * string) list
(** Inverse of {!to_file_format}; ignores blank lines and [#] comments. *)

val diff :
  expected:(string * string) list ->
  actual:(string * string) list ->
  (string * [ `Missing | `Extra | `Mismatch of string * string ]) list
(** Per-id comparison: ids present only in [expected] are [`Missing]
    from the run, ids present only in [actual] are [`Extra] (not yet
    recorded), and differing digests are [`Mismatch (expected,
    actual)].  Empty when the sets agree. *)
