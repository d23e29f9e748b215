(** Deterministic fan-out over OCaml 5 domains, with optional
    supervision (cooperative cancellation, per-task wall-clock timeouts,
    structured outcomes).

    Built only on stdlib [Domain] / [Atomic] (+ [Unix] for wall-clock
    deadlines).  The unit of work is a thunk; {!val-map} runs a batch of
    thunks on [min jobs (List.length tasks)] freshly spawned domains,
    joins them, and returns the results {e in input order}, so a
    parallel run is observationally identical to a serial one whenever
    the tasks themselves are independent and deterministic (the
    experiment sweep: every run owns its engine, RNG and sink).  The
    workers claim task indices from one shared counter, so tasks start
    in submission order.

    {2 Ownership rule}

    A task must not share mutable simulator state (engines, sinks,
    scenarios, RNGs) with any other task or with the caller — tasks
    communicate only through their return values.  A worker domain runs
    one task at a time; everything a task allocates is domain-private
    until it is returned.  Corollary: a task must not fan out over
    domains itself ({!val-map} with [jobs > 1] from inside a parallel
    task raises [Invalid_argument] naming the offending task index):
    nested maps would multiply the domain count past the runtime's
    limit.  Nested fan-out inside a task is allowed only through the
    serial path, [map ~jobs:1].

    {2 Supervision model}

    Cancellation is {e cooperative}: OCaml domains cannot be killed, so
    a task is handed a {!Control.t} and is expected to poll
    {!Control.check} at a bounded interval (simulation tasks do this
    from the engine watchdog, [Netsim.Watchdog]).  A poll past the
    wall-clock deadline raises {!Cancelled}, as does a watchdog that
    diagnoses a stall; {!map_outcomes} converts that into a structured
    {!outcome} instead of killing the batch.  A task that never polls
    can exceed its timeout — bound such tasks by construction. *)

(** Why a task was cancelled: it exceeded its wall-clock budget, or a
    watchdog diagnosed a stall (livelock, event storm, no progress). *)
type cancel_reason = Timeout of float | Stall of string

exception Cancelled of cancel_reason
(** Raised by {!Control.check} from inside a cancelled task.  Tasks
    should let it propagate (cleanup via [Fun.protect]); the supervised
    map converts it into {!Timed_out} / {!Stalled}. *)

(** Per-task cancellation handle. *)
module Control : sig
  type t

  val cancelled : t -> cancel_reason option

  val check : t -> unit
  (** Raises {!Cancelled} once the deadline has passed, and at every
      later check (the timeout is the sticky reason).  O(1); safe to
      call at high frequency. *)
end

(** The terminal state of one supervised task. *)
type 'a outcome =
  | Ok of 'a
  | Failed of { exn : exn; backtrace : Printexc.raw_backtrace }
      (** The task raised; re-raisable with its original backtrace. *)
  | Timed_out of { after : float }
      (** Cancelled by its wall-clock deadline ([after] seconds). *)
  | Stalled of { reason : string }
      (** Cancelled by a watchdog ({!cancel_reason.Stall}). *)

val outcome_label : _ outcome -> string
(** ["ok"] / ["failed"] / ["timeout"] / ["stalled"] — stable tags used
    in metrics labels and failure reports. *)

val map : jobs:int -> (unit -> 'a) list -> 'a list
(** [map ~jobs tasks] runs every task and returns the results in input
    order.  [jobs <= 1] runs the tasks sequentially in the calling
    domain, spawning nothing.  [jobs > 1] spawns
    [min jobs (List.length tasks)] worker domains and joins them before
    returning; both paths have the same semantics, so callers can treat
    [~jobs:1] as the serial reference for determinism checks.

    If one or more tasks raise, every task still runs to completion and
    the exception of the lowest-indexed failing task is re-raised (with
    its backtrace) after the batch drains.

    Raises [Invalid_argument] before any task runs when the batch would
    need more than 127 worker domains (OCaml 5 allows 128 domains in
    all, and the caller is one of them), or when called with
    [jobs > 1] from inside a parallel task (see the ownership rule
    above). *)

val map_outcomes :
  jobs:int -> ?timeout:float -> (Control.t -> 'a) list -> 'a outcome list
(** Supervised variant, same serial/parallel split and validation as
    {!val-map}: every task gets a fresh {!Control.t} (armed with
    [timeout] wall-clock seconds when given) and runs to a structured
    {!outcome} — no exception from a task ever escapes the batch, and
    slots come back in input order.  The deadline clock of task [i]
    starts when a worker claims it, not at submission.  [jobs <= 1]
    permits nested fan-out, serving as the in-task escape hatch. *)
