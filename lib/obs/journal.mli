(** Structured protocol journal: a bounded ring of timestamped, typed
    protocol events with severity and per-session/per-node scope.

    Where the metrics registry answers "how many / how much", the journal
    answers "what happened, in which order": feedback-round starts, CLR
    switches, rate changes, slowstart exits, loss events, fault
    injections, malformed-packet drops.  Recording is O(1) into a
    preallocated ring; the oldest entries are overwritten once the
    capacity is exceeded ({!total_recorded} keeps counting).

    A journal created as {!null} is disabled: {!record} returns without
    touching the ring, so agents can journal unconditionally. *)

type severity = Debug | Info | Warn | Error

(** Who emitted the event.  [component] is a dotted path such as
    ["tfmcc.sender"] or ["netsim.fault"]; [session] and [node] are [-1]
    when not applicable. *)
type scope = { component : string; session : int; node : int }

val scope : ?session:int -> ?node:int -> string -> scope

(** Typed protocol transitions.  Constructors are shared across agents
    (a PGMCC acker switch is a {!Clr_change} in spirit and in type); the
    scope's component disambiguates the emitter. *)
type event =
  | Round_start of { round : int; duration : float; max_rtt : float }
  | Clr_change of { prev : int; clr : int }  (** [prev = -1]: first election *)
  | Clr_drop of { clr : int; reason : string }  (** timeout / leave / starvation *)
  | Rate_change of { from_bps : float; to_bps : float; reason : string }
  | Cwnd_change of { from_pkts : float; to_pkts : float; reason : string }
  | Slowstart_exit of { rate_bps : float }
  | Loss_event of { p : float }  (** new loss event; [p] = loss-event rate *)
  | Starvation of { rate_bps : float }
  | Timeout of { what : string }  (** RTO, nofeedback timer, idle guard *)
  | Malformed_drop of { what : string }
  | Defense_reject of { rx : int; what : string }
      (** adversarial-receiver defense rejected a report: plausibility,
          outlier screen, spam rate-limit, or quarantine *)
  | Clr_damped of { rx : int }
      (** a CLR takeover by [rx] was suppressed by flap hold-down *)
  | Quarantine of { rx : int; until_ : float }
      (** [rx]'s suspicion score crossed the threshold; its reports are
          ignored until [until_] *)
  | Join
  | Leave of { explicit : bool }
  | Fault of { kind : string; detail : string }
  | Note of string

type entry = {
  time : float;
  severity : severity;
  scope : scope;
  event : event;
}

type t

val create : unit -> t
(** Ring of the most recent 65536 entries. *)

val null : t
(** The shared disabled journal: {!record} is a no-op. *)

val enabled : t -> bool
(** [false] for {!null}: a caller can skip building an event's payload
    that {!record} would drop. *)

val record : t -> time:float -> ?severity:severity -> scope -> event -> unit
(** O(1); default severity [Info]. *)

val entries : t -> entry list
(** Oldest first (within the retained window). *)

val total_recorded : t -> int
(** Every entry ever recorded, including those rotated out. *)

val count : t -> ?min_severity:severity -> unit -> int
(** Retained entries of at least [min_severity] (default: all). *)

val count_events : t -> (event -> bool) -> int

val pp_entry : Format.formatter -> entry -> unit
(** One line: [time sev component session/node event {fields}]. *)

val to_json : t -> Json.t
