(** The observability plane handed to a simulation: one metrics registry
    plus one protocol journal.

    A sink is created once per run, attached to the {e engine}
    ([Netsim.Engine.create ~obs]), and every component that holds the
    engine publishes through it.  {!null} disables both halves at
    near-zero hot-path cost. *)

type t = {
  metrics : Metrics.t;
  journal : Journal.t;
}

val create : unit -> t
(** A live registry and a journal of the newest 65536 entries. *)

val null : t
(** Both halves disabled ({!Metrics.null} and {!Journal.null}). *)

val event :
  t -> time:float -> ?severity:Journal.severity -> Journal.scope ->
  Journal.event -> unit
(** Shorthand for [Journal.record t.journal]. *)

val to_json : t -> Json.t
(** [{"metrics": [...], "journal": [...]}] *)
