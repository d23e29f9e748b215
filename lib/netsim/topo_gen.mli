(** Topology generators: a star and a random tree, plus a small
    transit-stub generator for "realistic multicast tree"
    studies (Section 3 argues the loss distribution over real trees is
    what saves single-rate protocols — these give such trees).

    All generators create fresh nodes inside the given topology and
    return them; links are duplex. *)

val star : Topology.t -> leaves:int -> Node.t * Node.t array
(** (hub, leaves), each leaf on a 10 Mbit/s / 5 ms link with a
    50-packet queue. *)

val random_tree : Topology.t -> Stats.Rng.t -> n:int -> Node.t array
(** A random rooted tree over n nodes (node 0 of the result is the root):
    each new node attaches to a uniformly chosen existing node with fewer
    than 4 children, over a 10 Mbit/s / 5 ms link with a 50-packet
    queue. *)

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
  ?stubs_per_transit:int ->
  ?hosts_per_stub:int ->
  unit ->
  transit_stub
(** 4 transits on a ring of 45 Mbit/s / 10 ms core links (100-packet
    queues), [stubs_per_transit] stubs each (default 3, 10 Mbit/s /
    5 ms), [hosts_per_stub] hosts per stub (default 4, 2 Mbit/s / 2 ms
    plus a uniform extra delay of up to 8 ms per host link); stub and
    host links have 50-packet queues. *)
