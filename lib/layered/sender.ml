(* Layer count, layer 0's rate (bytes/s), and the factor each further
   layer multiplies the cumulative rate by. *)
let layers = 6
let base_rate = 16_000.
let growth = 2.

type t = {
  topo : Netsim.Topology.t;
  engine : Netsim.Engine.t;
  session : int;
  node : Netsim.Node.t;
  cumulative : float array;  (* bytes/s through layer l *)
  layer_rate : float array;  (* bytes/s of layer l alone *)
  rng : Stats.Rng.t;
  mutable seqs : int array;
}

let send_layer t layer =
  let now = Netsim.Engine.now t.engine in
  let payload =
    Wire.Data
      {
        session = t.session;
        layer;
        seq = t.seqs.(layer);
        ts = now;
        cumulative_rate = t.cumulative.(layer);
        next_cumulative =
          (if layer + 1 < layers then t.cumulative.(layer + 1) else nan);
      }
  in
  t.seqs.(layer) <- t.seqs.(layer) + 1;
  let p =
    Netsim.Packet.alloc (Netsim.Engine.arena t.engine)
      ~flow:((t.session * 64) + layer) ~size:Wire.data_size
      ~src:(Netsim.Node.id t.node)
      ~dst:(Netsim.Packet.Multicast (Wire.group_of ~session:t.session ~layer))
      ~created:now payload
  in
  Netsim.Topology.inject t.topo p

let rec schedule_layer t layer =
  let jitter = 0.75 +. (0.5 *. Stats.Rng.uniform t.rng) in
  let delay = jitter *. float_of_int Wire.data_size /. t.layer_rate.(layer) in
  Netsim.Engine.after_unit t.engine ~delay (fun () ->
      send_layer t layer;
      schedule_layer t layer)

let create topo ~session ~node () =
  let cumulative =
    Array.init layers (fun l -> base_rate *. (growth ** float_of_int l))
  in
  let layer_rate =
    Array.init layers (fun l ->
        if l = 0 then cumulative.(0) else cumulative.(l) -. cumulative.(l - 1))
  in
  let engine = Netsim.Topology.engine topo in
  {
    topo;
    engine;
    session;
    node;
    cumulative;
    layer_rate;
    rng = Netsim.Engine.split_rng engine;
    seqs = Array.make layers 0;
  }

let start t ~at =
  ignore
    (Netsim.Engine.at t.engine ~time:at (fun () ->
         for l = 0 to layers - 1 do
           send_layer t l;
           schedule_layer t l
         done))
