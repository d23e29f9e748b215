(** Per-flow accounting: records bytes received against simulated time and
    exposes the binned throughput series the paper's plots are made of. *)

type t

val create : Engine.t -> t

val tap : t -> Packet.t -> unit
(** Records the packet against its flow tag at the current time. *)

val watch_node : t -> Node.t -> unit
(** Attaches a handler so every packet delivered locally at the node is
    recorded. *)

val watch_node_flow : t -> Node.t -> flow:int -> unit
(** Like {!watch_node} but records only the given flow. *)

val throughput_bps : t -> flow:int -> t_start:float -> t_end:float -> float

val rate_series_bps : t -> flow:int -> bin:float -> t_end:float -> (float * float) array

val delay_summary : t -> flow:int -> Stats.Descriptive.summary option
(** Summary of the one-way delays (creation to recording) of the
    flow's most recent 100,000 packets; [None] when the flow has no
    recorded packets.  The packet and byte counts are the registry's
    [netsim_monitor_packets_total] and [netsim_monitor_bytes_total]
    (label [flow]). *)
