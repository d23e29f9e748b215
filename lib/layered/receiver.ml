(* The configured RTT (there is no feedback channel to measure one),
   the initial per-layer join backoff, and the equation's b. *)
let rtt_estimate = 0.1
let min_join_interval = 2.
let b = 2.

type t = {
  topo : Netsim.Topology.t;
  engine : Netsim.Engine.t;
  session : int;
  node : Netsim.Node.t;
  history : Tfrc.Loss_history.t;
  (* Combined arrival clock: layer seq spaces are interleaved, so losses
     are detected per layer and folded into one synthetic sequence. *)
  mutable expected : int array;  (* per layer; -1 = not yet synced *)
  mutable clock : int;  (* synthetic combined sequence counter *)
  mutable subscribed : int;  (* number of layers joined *)
  mutable n_layers : int;  (* learned from packets *)
  mutable cum_rates : float array;  (* learned cumulative rates *)
  mutable join_backoff : float array;  (* per layer *)
  mutable next_join_ok : float array;
  mutable joined : bool;
  mutable received : int;
  mutable joins : int;
  mutable drops : int;
}

let subscription t = if t.joined then t.subscribed else 0

let packets_received t = t.received

let joins t = t.joins

let drops t = t.drops

let loss_event_rate t = Tfrc.Loss_history.loss_event_rate t.history

let cumulative_rate t =
  if (not t.joined) || t.subscribed = 0 || t.n_layers = 0 then 0.
  else t.cum_rates.(Stdlib.min (t.subscribed - 1) (t.n_layers - 1))

let calculated_rate t =
  let p = loss_event_rate t in
  if p <= 0. then infinity
  else Tcp_model.Padhye.throughput ~b ~s:Wire.data_size ~rtt:rtt_estimate p

let group t layer = Wire.group_of ~session:t.session ~layer

let join_layer t layer =
  Netsim.Topology.join t.topo ~group:(group t layer) t.node

let leave_layer t layer =
  Netsim.Topology.leave t.topo ~group:(group t layer) t.node

let ensure_arrays t n =
  if n > Array.length t.expected then begin
    let grow a default =
      let b = Array.make n default in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.expected <- grow t.expected (-1);
    t.cum_rates <- grow t.cum_rates 0.;
    t.join_backoff <- grow t.join_backoff min_join_interval;
    t.next_join_ok <- grow t.next_join_ok 0.
  end

(* Evaluate the subscription against the calculated rate. *)
let evaluate t =
  if t.joined && t.n_layers > 0 then begin
    let now = Netsim.Engine.now t.engine in
    let x = calculated_rate t in
    (* Leave while the top layer exceeds the budget (never below 1). *)
    let continue = ref true in
    while !continue && t.subscribed > 1 do
      let top = t.subscribed - 1 in
      if t.cum_rates.(top) > x then begin
        leave_layer t top;
        t.subscribed <- t.subscribed - 1;
        t.drops <- t.drops + 1;
        t.expected.(top) <- -1;
        (* A forced leave doubles the backoff for re-joining that layer. *)
        t.join_backoff.(top) <- Float.min 64. (2. *. t.join_backoff.(top));
        t.next_join_ok.(top) <- now +. t.join_backoff.(top)
      end
      else continue := false
    done;
    (* Join the next layer if the budget allows and the timer permits. *)
    if t.subscribed < t.n_layers then begin
      let next = t.subscribed in
      if t.cum_rates.(next) > 0.
         && x >= t.cum_rates.(next)
         && now >= t.next_join_ok.(next)
      then begin
        join_layer t next;
        t.subscribed <- t.subscribed + 1;
        t.joins <- t.joins + 1;
        t.next_join_ok.(next) <- now +. t.join_backoff.(next)
      end
    end
  end

let rec schedule_eval t =
  Netsim.Engine.after_unit t.engine ~delay:(4. *. rtt_estimate) (fun () ->
      evaluate t;
      schedule_eval t)

let on_data t ~layer ~seq ~cumulative_rate ~next_cumulative =
  if layer < t.subscribed then begin
    t.received <- t.received + 1;
    ensure_arrays t (layer + 2);
    if layer + 1 > t.n_layers then t.n_layers <- layer + 1;
    t.cum_rates.(layer) <- cumulative_rate;
    (* In-band announcement of the next layer's rate. *)
    if not (Float.is_nan next_cumulative) then begin
      t.cum_rates.(layer + 1) <- next_cumulative;
      if layer + 2 > t.n_layers then t.n_layers <- layer + 2
    end;
    (* Per-layer gap detection folded into the combined clock. *)
    let lost =
      if t.expected.(layer) < 0 then begin
        t.expected.(layer) <- seq + 1;
        0
      end
      else if seq >= t.expected.(layer) then begin
        let l = seq - t.expected.(layer) in
        t.expected.(layer) <- seq + 1;
        l
      end
      else 0
    in
    t.clock <- t.clock + 1 + lost;
    Tfrc.Loss_history.on_packet t.history ~seq:(t.clock - 1)
  end

let create topo ~session ~node =
  let engine = Netsim.Topology.engine topo in
  let t =
    {
      topo;
      engine;
      session;
      node;
      history =
        Tfrc.Loss_history.create ~clock:(Netsim.Engine.time_cell engine)
          ~rtt:(fun () -> rtt_estimate) ();
      expected = Array.make 8 (-1);
      clock = 0;
      subscribed = 0;
      n_layers = 0;
      cum_rates = Array.make 8 0.;
      join_backoff = Array.make 8 min_join_interval;
      next_join_ok = Array.make 8 0.;
      joined = false;
      received = 0;
      joins = 0;
      drops = 0;
    }
  in
  Netsim.Node.attach node (fun p ->
      match p.Netsim.Packet.payload with
      | Wire.Data { session; layer; seq; ts = _; cumulative_rate; next_cumulative }
        when session = t.session ->
          on_data t ~layer ~seq ~cumulative_rate ~next_cumulative
      | _ -> ());
  t

let join t =
  if not t.joined then begin
    t.joined <- true;
    t.subscribed <- 1;
    join_layer t 0;
    schedule_eval t
  end
