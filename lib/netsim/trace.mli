(** Packet-level event tracing in the spirit of ns-2 trace files.

    A tracer attaches to links and records transmit / queue-drop /
    loss-drop / deliver events with timestamps.  Useful for debugging
    protocol behaviour and for computing per-hop statistics the monitors
    do not expose. *)

type t

val create : unit -> t
(** A ring buffer of the most recent 100,000 events. *)

val attach : t -> Link.t -> unit
(** Starts tracing a link.  Multiple links may share one tracer. *)

val total_recorded : t -> int
(** All events ever recorded, including those rotated out. *)

val to_text : t -> string
(** The retained trace, oldest first, one event per line: the kind
    ([+] tx, [d] queue drop, [x] loss drop, [t] TTL drop, [r] deliver),
    time, link source and destination ids, flow, size and packet uid. *)
