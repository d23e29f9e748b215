(** Topology generators: a star and a random tree, plus a small
    transit-stub generator for "realistic multicast tree"
    studies (Section 3 argues the loss distribution over real trees is
    what saves single-rate protocols — these give such trees).

    All generators create fresh nodes inside the given topology and
    return them; links are duplex with per-call bandwidth/delay. *)

type link_spec = {
  bandwidth_bps : float;
  delay_s : float;
  queue_capacity : int;
}

val star : Topology.t -> leaves:int -> ?link:link_spec -> unit -> Node.t * Node.t array
(** (hub, leaves). *)

val random_tree :
  Topology.t ->
  Stats.Rng.t ->
  n:int ->
  ?max_children:int ->
  ?link:link_spec ->
  unit ->
  Node.t array
(** A random rooted tree over n nodes (node 0 of the result is the root):
    each new node attaches to a uniformly chosen existing node with fewer
    than [max_children] children (default 4). *)

(** A two-level transit-stub internet: a ring of transit routers, each
    with stub routers hanging off it, each stub with end hosts. *)
type transit_stub = {
  transits : Node.t array;
  stubs : Node.t array;
  hosts : Node.t array;
}

val transit_stub :
  Topology.t ->
  Stats.Rng.t ->
  ?transits:int ->
  ?stubs_per_transit:int ->
  ?hosts_per_stub:int ->
  ?core_link:link_spec ->
  ?stub_link:link_spec ->
  ?host_link:link_spec ->
  ?host_delay_jitter:float ->
  unit ->
  transit_stub
(** Defaults: 4 transits (ring, 45 Mbit/s / 10 ms core), 3 stubs each
    (10 Mbit/s / 5 ms), 4 hosts per stub (2 Mbit/s / 2 ms, plus up to
    [host_delay_jitter] = 8 ms of random extra delay per host link). *)
