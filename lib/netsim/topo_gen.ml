type link_spec = {
  bandwidth_bps : float;
  delay_s : float;
  queue_capacity : int;
}

(* Star and random-tree links; also the transit-stub's stub links. *)
let default_link = { bandwidth_bps = 10e6; delay_s = 0.005; queue_capacity = 50 }
let core_link = { bandwidth_bps = 45e6; delay_s = 0.01; queue_capacity = 100 }
let host_link = { bandwidth_bps = 2e6; delay_s = 0.002; queue_capacity = 50 }

(* Upper bound of the uniform extra delay on each host link. *)
let host_delay_jitter = 0.008

let transits = 4

let connect topo link a b =
  ignore
    (Topology.connect topo ~queue_capacity:link.queue_capacity
       ~bandwidth_bps:link.bandwidth_bps ~delay_s:link.delay_s a b)

let star topo ~leaves =
  if leaves < 1 then invalid_arg "Topo_gen.star: need at least one leaf";
  let hub = Topology.add_node topo in
  let ls = Topology.add_nodes topo leaves in
  Array.iter (fun l -> connect topo default_link hub l) ls;
  (hub, ls)

(* Children a random-tree node takes before new nodes look elsewhere. *)
let max_children = 4

let random_tree topo rng ~n =
  if n < 1 then invalid_arg "Topo_gen.random_tree: n must be positive";
  let nodes = Array.make n (Topology.add_node topo) in
  let children = Array.make n 0 in
  for i = 1 to n - 1 do
    nodes.(i) <- Topology.add_node topo;
    (* Pick an attachment point with spare child slots. *)
    let rec pick tries =
      let candidate = Stats.Rng.int rng i in
      if children.(candidate) < max_children || tries > 50 then candidate
      else pick (tries + 1)
    in
    let parent = pick 0 in
    children.(parent) <- children.(parent) + 1;
    connect topo default_link nodes.(parent) nodes.(i)
  done;
  nodes

type transit_stub = {
  transits : Node.t array;
  stubs : Node.t array;
  hosts : Node.t array;
}

let transit_stub topo rng ?(stubs_per_transit = 3) ?(hosts_per_stub = 4) () =
  if stubs_per_transit < 1 || hosts_per_stub < 1 then
    invalid_arg "Topo_gen.transit_stub: all counts must be positive";
  let ts = Topology.add_nodes topo transits in
  for i = 0 to transits - 1 do
    connect topo core_link ts.(i) ts.((i + 1) mod transits)
  done;
  let stubs = ref [] and hosts = ref [] in
  Array.iter
    (fun transit ->
      for _ = 1 to stubs_per_transit do
        let stub = Topology.add_node topo in
        connect topo default_link transit stub;
        stubs := stub :: !stubs;
        for _ = 1 to hosts_per_stub do
          let host = Topology.add_node topo in
          let jitter = Stats.Rng.float rng host_delay_jitter in
          connect topo { host_link with delay_s = host_link.delay_s +. jitter }
            stub host;
          hosts := host :: !hosts
        done
      done)
    ts;
  {
    transits = ts;
    stubs = Array.of_list (List.rev !stubs);
    hosts = Array.of_list (List.rev !hosts);
  }
