(** Packet-level event tracing in the spirit of ns-2 trace files.

    A tracer attaches to links and records transmit / queue-drop /
    loss-drop / deliver events with timestamps.  Useful for debugging
    protocol behaviour and for computing per-hop statistics the monitors
    do not expose. *)

(** What happened to a packet at a link. *)
type kind =
  | Tx  (** fully transmitted onto the wire *)
  | Drop_queue  (** rejected by the egress queue discipline *)
  | Drop_loss  (** dropped by the stochastic loss model *)
  | Drop_ttl  (** discarded by the TTL guard (routing loop) *)
  | Deliver  (** handed to the destination node *)

type event = {
  time : float;
  kind : kind;
  link_src : int;  (** node ids of the traced link *)
  link_dst : int;
  uid : int;  (** packet uid *)
  flow : int;
  size : int;
}

type t

val create : ?capacity:int -> ?sink:Obs.Sink.t -> unit -> t
(** Ring buffer of the most recent [capacity] events (default 100_000).
    When [sink] is given (default: the null sink), every recorded event
    also bumps the monotonic registry counter
    [netsim_trace_events_total{kind=tx|drop_queue|drop_loss|drop_ttl|deliver}],
    making the tracer a thin client of the shared metrics plane. *)

val attach : t -> Link.t -> unit
(** Starts tracing a link.  Multiple links may share one tracer. *)

val events : t -> event list
(** Oldest first (within the retained window). *)

val count : t -> kind:kind -> int
(** Events of one kind currently retained.  O(1): per-kind counts are
    maintained on {!record} (and decremented when the ring rotates an
    event out). *)

val total_recorded : t -> int
(** All events ever recorded, including those rotated out. *)

val clear : t -> unit
(** Empties the ring and resets {!total_recorded} and the per-kind
    counts.  Registry counters are monotonic and unaffected. *)

val to_text : t -> string
(** The whole retained trace, one event per line. *)
