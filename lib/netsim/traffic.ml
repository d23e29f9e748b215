type kind =
  | Cbr
  | Poisson
  | On_off

let packet_size = 1000

(* A CBR gap is spread uniformly over ±jitter/2 of its nominal value. *)
let jitter = 0.1

type t = {
  topo : Topology.t;
  engine : Engine.t;
  rng : Stats.Rng.t;
  kind : kind;
  flow : int;
  src : Node.t;
  dst : Node.t;
  rate_bps : float;
  packet_size : int;
  mutable running : bool;
  mutable in_on_period : bool;
  mutable period_ends : float;
  mutable timer : Engine.handle option;
  mutable sent : int;
  mutable bytes : int;
}

let make topo ~kind ~flow ~src ~dst ~rate_bps ~packet_size =
  if rate_bps <= 0. then invalid_arg "Traffic: rate must be positive";
  if packet_size <= 0 then invalid_arg "Traffic: packet size must be positive";
  let engine = Topology.engine topo in
  {
    topo;
    engine;
    rng = Engine.split_rng engine;
    kind;
    flow;
    src;
    dst;
    rate_bps;
    packet_size;
    running = false;
    in_on_period = true;
    period_ends = 0.;
    timer = None;
    sent = 0;
    bytes = 0;
  }

let cbr topo ~flow ~src ~dst ~rate_bps ?(packet_size = packet_size) () =
  make topo ~kind:Cbr ~flow ~src ~dst ~rate_bps ~packet_size

let poisson topo ~flow ~src ~dst ~rate_bps () =
  make topo ~kind:Poisson ~flow ~src ~dst ~rate_bps ~packet_size

(* Mean length of an on-off source's on and off periods alike. *)
let period_mean = 1.

let on_off topo ~flow ~src ~dst ~rate_bps () =
  make topo ~kind:On_off ~flow ~src ~dst ~rate_bps ~packet_size

let gap t =
  let nominal = float_of_int t.packet_size *. 8. /. t.rate_bps in
  match t.kind with
  | Cbr ->
      nominal *. (1. -. (jitter /. 2.) +. Stats.Rng.float t.rng jitter)
  | Poisson -> Stats.Rng.exponential t.rng ~mean:nominal
  | On_off -> nominal

let emit t =
  let p =
    Packet.alloc (Engine.arena t.engine)
      ~flow:t.flow ~size:t.packet_size ~src:(Node.id t.src)
      ~dst:(Packet.Unicast (Node.id t.dst))
      ~created:(Engine.now t.engine) (Packet.Raw t.flow)
  in
  t.sent <- t.sent + 1;
  t.bytes <- t.bytes + t.packet_size;
  Topology.inject t.topo p

let rec tick t =
  t.timer <- None;
  if t.running then begin
    let now = Engine.now t.engine in
    (match t.kind with
    | On_off ->
        if now >= t.period_ends then begin
          (* Flip phase. *)
          t.in_on_period <- not t.in_on_period;
          t.period_ends <- now +. Stats.Rng.exponential t.rng ~mean:period_mean
        end
    | Cbr | Poisson -> ());
    let delay =
      match t.kind with
      | On_off when not t.in_on_period ->
          (* Sleep out the off period. *)
          Float.max 1e-6 (t.period_ends -. now)
      | _ ->
          emit t;
          gap t
    in
    t.timer <- Some (Engine.after t.engine ~delay (fun () -> tick t))
  end

let start t ~at =
  t.running <- true;
  (match t.kind with
  | On_off ->
      t.in_on_period <- true;
      t.period_ends <- at +. Stats.Rng.exponential t.rng ~mean:period_mean
  | Cbr | Poisson -> ());
  Engine.at_unit t.engine ~base:Event_heap.time_zero ~offset:at (fun () -> tick t)

let stop t =
  t.running <- false;
  match t.timer with
  | Some h ->
      Engine.cancel t.engine h;
      t.timer <- None
  | None -> ()

let packets_sent t = t.sent

let bytes_sent t = t.bytes
