type red_state = {
  rng : Stats.Rng.t;
  mutable avg : float;
  mutable count : int;  (* packets since last early drop *)
}

(* RED's maximum early-drop probability and queue-average EWMA weight. *)
let max_p = 0.1
let weight = 0.002

type kind = Droptail | Red of red_state

(* FIFO storage is a growable power-of-two ring over a flat packet
   array: enqueue/dequeue are index arithmetic plus one store, where
   [Stdlib.Queue] allocated a 3-word cell per push.  Keeps the queued
   packets contiguous for the link's drain loop. *)
type t = {
  kind : kind;
  capacity : int;
  mutable ring : Packet.t array;
  mutable head : int;  (* index of the oldest packet *)
  mutable len : int;
}

let initial_ring = 16  (* power of two; doubles on demand *)

let droptail ~capacity_pkts =
  if capacity_pkts <= 0 then invalid_arg "Queue_disc.droptail: capacity must be positive";
  {
    kind = Droptail;
    capacity = capacity_pkts;
    ring = Array.make initial_ring Packet.dummy;
    head = 0;
    len = 0;
  }

let red ~rng ~capacity_pkts =
  if capacity_pkts <= 0 then invalid_arg "Queue_disc.red: capacity must be positive";
  {
    kind = Red { rng; avg = 0.; count = -1 };
    capacity = capacity_pkts;
    ring = Array.make initial_ring Packet.dummy;
    head = 0;
    len = 0;
  }

let grow q =
  let n = Array.length q.ring in
  let ring = Array.make (2 * n) Packet.dummy in
  (* Unroll the ring into index order so head masking stays valid. *)
  for i = 0 to q.len - 1 do
    ring.(i) <- q.ring.((q.head + i) land (n - 1))
  done;
  q.ring <- ring;
  q.head <- 0

let accept q p =
  if q.len = Array.length q.ring then grow q;
  let mask = Array.length q.ring - 1 in
  Array.unsafe_set q.ring ((q.head + q.len) land mask) p;
  q.len <- q.len + 1;
  true

let red_enqueue q s p =
  let len = float_of_int q.len in
  s.avg <- ((1. -. weight) *. s.avg) +. (weight *. len);
  (* Thresholds in packets: a quarter and three quarters of capacity. *)
  let cap = float_of_int q.capacity in
  let min_thresh = cap /. 4. and max_thresh = 3. *. cap /. 4. in
  if q.len >= q.capacity then false
  else if s.avg < min_thresh then begin
    s.count <- -1;
    accept q p
  end
  else if s.avg >= max_thresh then begin
    s.count <- 0;
    false
  end
  else begin
    s.count <- s.count + 1;
    let pb = max_p *. (s.avg -. min_thresh) /. (max_thresh -. min_thresh) in
    let pa =
      let denom = 1. -. (float_of_int s.count *. pb) in
      if denom <= 0. then 1. else pb /. denom
    in
    if Stats.Rng.bernoulli s.rng pa then begin
      s.count <- 0;
      false
    end
    else accept q p
  end

let enqueue q p =
  match q.kind with
  | Droptail -> if q.len >= q.capacity then false else accept q p
  | Red s -> red_enqueue q s p

let is_empty q = q.len = 0

(* Allocation-free dequeue for the link's transmit-completion path. *)
let dequeue_exn q =
  if q.len = 0 then invalid_arg "Queue_disc.dequeue_exn: empty queue";
  let p = Array.unsafe_get q.ring q.head in
  (* Drop the slot's reference: the packet's arena slot must not be
     pinned by the ring once it leaves the queue. *)
  Array.unsafe_set q.ring q.head Packet.dummy;
  q.head <- (q.head + 1) land (Array.length q.ring - 1);
  q.len <- q.len - 1;
  p

let length q = q.len


