(* Depth of the epoch-mean history, and its WALI-style weights. *)
let n_epochs = 8

let weights =
  Array.init n_epochs (fun i ->
      Float.min 1.
        (2. *. float_of_int (n_epochs - i) /. float_of_int (n_epochs + 2)))

type t = {
  topo : Netsim.Topology.t;
  engine : Netsim.Engine.t;
  conn : int;
  node : Netsim.Node.t;
  sender : Netsim.Node.t;
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable expected : int;
  mutable synced : bool;
  mutable last_event_time : float;
  mutable rtt : float;  (* sender's estimate from data packets *)
  (* Current epoch accumulation. *)
  mutable epoch_sum : float;
  mutable epoch_packets : int;
  mutable epoch_means : float list;  (* newest first, <= n_epochs *)
  mutable epochs : int;
  mutable last_ts : float;
  mutable last_arrival : float;
  mutable have_data : bool;
  mutable fb_timer : Netsim.Engine.handle option;
}

let window t = t.cwnd

let epochs_completed t = t.epochs

(* Weighted mean of epoch means, folding the running epoch in as the
   newest sample (like the open loss interval in WALI). *)
let smoothed_window t =
  let current =
    if t.epoch_packets > 0 then
      Some (t.epoch_sum /. float_of_int t.epoch_packets)
    else None
  in
  let samples =
    match current with Some c -> c :: t.epoch_means | None -> t.epoch_means
  in
  if samples = [] then t.cwnd
  else begin
    let num = ref 0. and den = ref 0. in
    List.iteri
      (fun i v ->
        if i < n_epochs then begin
          num := !num +. (weights.(i) *. v);
          den := !den +. weights.(i)
        end)
      samples;
    !num /. !den
  end

let rate_bytes_per_s t =
  smoothed_window t *. float_of_int Wire.data_size /. Float.max 1e-3 t.rtt

let send_feedback t =
  if t.have_data then begin
    let now = Netsim.Engine.now t.engine in
    let payload =
      Wire.Feedback
        {
          conn = t.conn;
          ts = now;
          echo_ts = t.last_ts;
          echo_delay = now -. t.last_arrival;
          rate = rate_bytes_per_s t;
        }
    in
    let p =
      Netsim.Packet.alloc (Netsim.Engine.arena t.engine)
        ~flow:(-1) ~size:Wire.feedback_size
        ~src:(Netsim.Node.id t.node)
        ~dst:(Netsim.Packet.Unicast (Netsim.Node.id t.sender))
        ~created:now payload
    in
    Netsim.Topology.inject t.topo p
  end

let rec schedule_feedback t =
  let delay = Float.max 1e-3 t.rtt in
  t.fb_timer <-
    Some
      (Netsim.Engine.after t.engine ~delay (fun () ->
           send_feedback t;
           schedule_feedback t))

let end_epoch t =
  if t.epoch_packets > 0 then begin
    let mean = t.epoch_sum /. float_of_int t.epoch_packets in
    t.epoch_means <- mean :: t.epoch_means;
    if List.length t.epoch_means > n_epochs then
      t.epoch_means <- List.filteri (fun i _ -> i < n_epochs) t.epoch_means;
    t.epochs <- t.epochs + 1
  end;
  t.epoch_sum <- 0.;
  t.epoch_packets <- 0

let on_data t ~seq ~ts ~rtt =
  let now = Netsim.Engine.now t.engine in
  t.have_data <- true;
  t.last_ts <- ts;
  t.last_arrival <- now;
  t.rtt <- rtt;
  let lost =
    if not t.synced then begin
      t.synced <- true;
      t.expected <- seq + 1;
      0
    end
    else if seq >= t.expected then begin
      let l = seq - t.expected in
      t.expected <- seq + 1;
      l
    end
    else 0
  in
  (if lost > 0 && now -. t.last_event_time > rtt then begin
     (* Loss event: end the epoch and halve, as TCP would. *)
     t.last_event_time <- now;
     end_epoch t;
     t.ssthresh <- Float.max 2. (t.cwnd /. 2.);
     t.cwnd <- t.ssthresh
   end);
  (* The arrival clocks the shadow window like an ACK. *)
  if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd +. 1.
  else t.cwnd <- t.cwnd +. (1. /. t.cwnd);
  t.epoch_sum <- t.epoch_sum +. t.cwnd;
  t.epoch_packets <- t.epoch_packets + 1;
  if t.fb_timer = None then begin
    send_feedback t;
    schedule_feedback t
  end

let create topo ~conn ~node ~sender =
  let t =
    {
      topo;
      engine = Netsim.Topology.engine topo;
      conn;
      node;
      sender;
      cwnd = 1.;
      ssthresh = 64.;
      expected = 0;
      synced = false;
      last_event_time = neg_infinity;
      rtt = 0.5;
      epoch_sum = 0.;
      epoch_packets = 0;
      epoch_means = [];
      epochs = 0;
      last_ts = nan;
      last_arrival = nan;
      have_data = false;
      fb_timer = None;
    }
  in
  Netsim.Node.attach node (fun p ->
      match p.Netsim.Packet.payload with
      | Wire.Data { conn; seq; ts; rtt } when conn = t.conn ->
          on_data t ~seq ~ts ~rtt
      | _ -> ());
  t
