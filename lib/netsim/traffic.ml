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
  mutable in_on_period : bool;
  mutable period_ends : float;
  (* [tick t], allocated once so each tick schedules the next without
     allocating a closure. *)
  mutable tick_cb : unit -> unit;
}

(* Mean length of an on-off source's on and off periods alike. *)
let period_mean = 1.

let gap t =
  let nominal = float_of_int packet_size *. 8. /. t.rate_bps in
  match t.kind with
  | Cbr ->
      nominal *. (1. -. (jitter /. 2.) +. Stats.Rng.float t.rng jitter)
  | Poisson -> Stats.Rng.exponential t.rng ~mean:nominal
  | On_off -> nominal

let emit t =
  let p =
    Packet.alloc (Engine.arena t.engine)
      ~flow:t.flow ~size:packet_size ~src:(Node.id t.src)
      ~dst:(Packet.Unicast (Node.id t.dst))
      ~created:(Engine.now t.engine) (Packet.Raw t.flow)
  in
  Topology.inject t.topo p

let tick t =
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
  Engine.after_unit t.engine ~delay t.tick_cb

let make topo ~kind ~flow ~src ~dst ~rate_bps =
  if rate_bps <= 0. then invalid_arg "Traffic: rate must be positive";
  let engine = Topology.engine topo in
  let t =
    {
      topo;
      engine;
      rng = Engine.split_rng engine;
      kind;
      flow;
      src;
      dst;
      rate_bps;
      in_on_period = true;
      period_ends = 0.;
      tick_cb = ignore;
    }
  in
  t.tick_cb <- (fun () -> tick t);
  t

let cbr topo ~flow ~src ~dst ~rate_bps () =
  make topo ~kind:Cbr ~flow ~src ~dst ~rate_bps

let poisson topo ~flow ~src ~dst ~rate_bps () =
  make topo ~kind:Poisson ~flow ~src ~dst ~rate_bps

let on_off topo ~flow ~src ~dst ~rate_bps () =
  make topo ~kind:On_off ~flow ~src ~dst ~rate_bps

let start t ~at =
  (match t.kind with
  | On_off ->
      t.in_on_period <- true;
      t.period_ends <- at +. Stats.Rng.exponential t.rng ~mean:period_mean
  | Cbr | Poisson -> ());
  Engine.at_unit t.engine ~base:Event_heap.time_zero ~offset:at t.tick_cb
