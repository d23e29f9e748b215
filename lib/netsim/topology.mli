(** Network topology: nodes, duplex links, shortest-path unicast routing
    and source-rooted multicast distribution trees.

    Routing is hop-count shortest path (BFS) with deterministic
    tie-breaking, recomputed lazily and cached; caches are invalidated when
    links are added or group membership changes.  Multicast packets are
    duplicated at branch points of the tree formed by the union of
    shortest paths from the packet's source to every group member —
    exactly the behaviour the paper relies on for correlated loss upstream
    of a branch point. *)

type t

val create : Engine.t -> t

val engine : t -> Engine.t

val add_node : t -> Node.t
(** Creates a node with the next free id and installs the routing hook. *)

val add_nodes : t -> int -> Node.t array

val connect :
  t ->
  ?queue_capacity:int ->
  ?queue_ab:Queue_disc.t ->
  ?queue_ba:Queue_disc.t ->
  ?loss_ab:Loss_model.t ->
  ?loss_ba:Loss_model.t ->
  bandwidth_bps:float ->
  delay_s:float ->
  Node.t ->
  Node.t ->
  Link.t * Link.t
(** [connect t a b] creates the duplex link a<->b and returns
    (link a->b, link b->a).  Each direction gets its own drop-tail queue
    of [queue_capacity] packets (default 50) unless an explicit queue is
    supplied.  Raises if the nodes are already connected. *)

val link_between : t -> Node.t -> Node.t -> Link.t option
(** The directed link from the first node to the second, if any. *)

val join : t -> group:int -> Node.t -> unit
(** Idempotent. *)

val leave : t -> group:int -> Node.t -> unit
(** Idempotent. *)

val inject : t -> Packet.t -> unit
(** Sends a packet originating at node [packet.src]: routes unicast
    packets toward their destination, fans multicast packets out along
    the group tree.  The sending node does not receive its own multicast
    packet even if it is a member. *)

val path : t -> src:Node.t -> dst:Node.t -> Node.t list option
(** Shortest path including both endpoints, as the routing table
    forwards along it; [None] if unreachable. *)
