(* In-process loopback datagram fabric (see net.mli). *)

open Tfmcc_core

type impairment = { loss : float; delay : float; jitter : float; warmup : float }

let impairment ?(loss = 0.) ?(delay = 0.) ?(jitter = 0.) ?(warmup = 0.) () =
  if loss < 0. || loss > 1. || not (Float.is_finite loss) then
    invalid_arg "Net.impairment: loss must be in [0,1]";
  if delay < 0. || not (Float.is_finite delay) then
    invalid_arg "Net.impairment: delay must be finite and non-negative";
  if jitter < 0. || not (Float.is_finite jitter) then
    invalid_arg "Net.impairment: jitter must be finite and non-negative";
  if warmup < 0. || not (Float.is_finite warmup) then
    invalid_arg "Net.impairment: warmup must be finite and non-negative";
  { loss; delay; jitter; warmup }

type endpoint = {
  ep_id : int;
  session : int;
  net : t;
  mutable deliver : (size:int -> Wire.msg -> unit) option;
  on_frame : bytes -> int -> unit;
      (* [deliver_frame] bound to this endpoint, built once: what the
         loop's frame slots fire for a copy addressed here *)
  mutable paths : (int, horizon) Hashtbl.t option;
      (* dst id -> FIFO horizon from here; made on the first send, so
         building thousands of endpoints allocates no table *)
}

(* Latest arrival time scheduled on one (src, dst) path. *)
and horizon = { mutable last : float }

and t = {
  loop : Loop.t;
  impair : impairment;
  rng : Stats.Rng.t; (* impairment draws, split off the loop's master *)
  endpoints : (int, endpoint) Hashtbl.t;
  groups : (int, int list) Hashtbl.t; (* session -> member ids, ascending *)
  loss_from : float; (* loop time the loss dice start rolling *)
  (* Chaos state (DESIGN.md §15).  [blocked] refcounts endpoints taken
     out by partitions/churn — overlapping windows may block the same
     endpoint twice, and it only resurfaces once every window heals.
     [blocked_n] caches the live entry count so the clean-path send
     pays two int compares, not hash lookups. *)
  blocked : (int, int) Hashtbl.t;
  mutable blocked_n : int;
  mutable fabric_up : bool;
  mutable next_id : int;
  mutable sent : int;
  mutable delivered : int;
  mutable lost : int;
  mutable enc_drops : int;
  mutable dec_errors : int;
  mutable partition_drops : int;
  mutable flap_drops : int;
  m_sent : Obs.Metrics.Counter.t;
  m_delivered : Obs.Metrics.Counter.t;
  m_lost : Obs.Metrics.Counter.t;
  m_enc : Obs.Metrics.Counter.t;
  m_dec : Obs.Metrics.Counter.t;
  m_partition : Obs.Metrics.Counter.t;
  m_flap : Obs.Metrics.Counter.t;
}

let create loop ?(impair = impairment ()) () =
  let m = (Loop.obs loop).Obs.Sink.metrics in
  {
    loop;
    impair;
    rng = Loop.split_rng loop;
    endpoints = Hashtbl.create 64;
    groups = Hashtbl.create 16;
    loss_from = Loop.now loop +. impair.warmup;
    blocked = Hashtbl.create 16;
    blocked_n = 0;
    fabric_up = true;
    next_id = 0;
    sent = 0;
    delivered = 0;
    lost = 0;
    enc_drops = 0;
    dec_errors = 0;
    partition_drops = 0;
    flap_drops = 0;
    m_sent = Obs.Metrics.counter m "tfmcc_rt_frames_sent_total";
    m_delivered = Obs.Metrics.counter m "tfmcc_rt_frames_delivered_total";
    m_lost =
      Obs.Metrics.counter m ~labels:[ ("reason", "loss") ] "tfmcc_rt_frame_drop_total";
    m_enc =
      Obs.Metrics.counter m ~labels:[ ("reason", "encode") ]
        "tfmcc_rt_frame_drop_total";
    m_dec =
      Obs.Metrics.counter m ~labels:[ ("reason", "decode") ]
        "tfmcc_rt_frame_drop_total";
    m_partition =
      Obs.Metrics.counter m ~labels:[ ("reason", "partition") ]
        "tfmcc_rt_frame_drop_total";
    m_flap =
      Obs.Metrics.counter m ~labels:[ ("reason", "flap") ]
        "tfmcc_rt_frame_drop_total";
  }

let loop t = t.loop

let sessions t =
  List.sort compare (Hashtbl.fold (fun sid _ acc -> sid :: acc) t.groups [])

(* ----------------------------------------------------------- chaos hooks *)

let set_fabric_up t up = t.fabric_up <- up

let fabric_up t = t.fabric_up

let block t id =
  (match Hashtbl.find_opt t.blocked id with
  | None ->
      Hashtbl.replace t.blocked id 1;
      t.blocked_n <- t.blocked_n + 1
  | Some n -> Hashtbl.replace t.blocked id (n + 1))

let unblock t id =
  match Hashtbl.find_opt t.blocked id with
  | None -> ()
  | Some 1 ->
      Hashtbl.remove t.blocked id;
      t.blocked_n <- t.blocked_n - 1
  | Some n -> Hashtbl.replace t.blocked id (n - 1)

let is_blocked t id = t.blocked_n > 0 && Hashtbl.mem t.blocked id

let blocked_count t = t.blocked_n

(* Decoded per copy, as each UDP receiver would decode its own. *)
let deliver_frame ep frame size =
  match ep.deliver with
  | None -> ()
  | Some f -> (
      let t = ep.net in
      match Wire.decode frame with
      | Ok msg ->
          t.delivered <- t.delivered + 1;
          Obs.Metrics.Counter.inc t.m_delivered;
          f ~size msg
      | Error _ ->
          t.dec_errors <- t.dec_errors + 1;
          Obs.Metrics.Counter.inc t.m_dec)

let endpoint t ~session =
  let rec ep =
    {
      ep_id = t.next_id;
      session;
      net = t;
      deliver = None;
      on_frame = (fun frame size -> deliver_frame ep frame size);
      paths = None;
    }
  in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.endpoints ep.ep_id ep;
  ep

let set_deliver ep f = ep.deliver <- Some f

let endpoint_id ep = ep.ep_id

(* Group sends read the member list; only join and leave rebuild it. *)
let members t session =
  match Hashtbl.find t.groups session with ids -> ids | exception Not_found -> []

let join ep =
  let t = ep.net in
  let rec insert = function
    | x :: rest when x < ep.ep_id -> x :: insert rest
    | x :: _ as l when x = ep.ep_id -> l
    | l -> ep.ep_id :: l
  in
  Hashtbl.replace t.groups ep.session (insert (members t ep.session))

let leave ep =
  let t = ep.net in
  match Hashtbl.find_opt t.groups ep.session with
  | None -> ()
  | Some ids -> Hashtbl.replace t.groups ep.session (List.filter (( <> ) ep.ep_id) ids)

(* A copy addressed to an unknown id still fires, as a no-op, so the
   loop's timer count does not depend on whether the id exists. *)
let no_endpoint (_ : bytes) (_ : int) = ()

let horizon ep dst =
  let paths =
    match ep.paths with
    | Some paths -> paths
    | None ->
        let paths = Hashtbl.create 8 in
        ep.paths <- Some paths;
        paths
  in
  match Hashtbl.find paths dst with
  | h -> h
  | exception Not_found ->
      let h = { last = neg_infinity } in
      Hashtbl.add paths dst h;
      h

(* One copy of [frame] offered to the path from [ep] to [dst].  Chaos
   checks happen at send time: frames already in flight when a
   partition or flap begins still land, like packets on the wire when
   a real link goes down behind them. *)
let send_copy ep frame dsize ~src_blocked dst =
  let t = ep.net in
  t.sent <- t.sent + 1;
  Obs.Metrics.Counter.inc t.m_sent;
  if not t.fabric_up then begin
    t.flap_drops <- t.flap_drops + 1;
    Obs.Metrics.Counter.inc t.m_flap
  end
  else if src_blocked || is_blocked t dst then begin
    t.partition_drops <- t.partition_drops + 1;
    Obs.Metrics.Counter.inc t.m_partition
  end
  else if
    t.impair.loss > 0.
    && (Loop.clock t.loop).Event_heap.cell_time >= t.loss_from
    && Stats.Rng.bernoulli t.rng t.impair.loss
  then begin
    t.lost <- t.lost + 1;
    Obs.Metrics.Counter.inc t.m_lost
  end
  else begin
    let extra =
      if t.impair.jitter > 0. then t.impair.jitter *. Stats.Rng.uniform t.rng else 0.
    in
    (* Jitter must not reorder a path: like a netem-shaped FIFO link
       (and like the simulator's queues), an arrival never precedes the
       previous arrival on the same (src,dst). *)
    (* The clock is read from its cell: [Loop.now] would box it. *)
    let arrival = (Loop.clock t.loop).Event_heap.cell_time +. t.impair.delay +. extra in
    let h = horizon ep dst in
    let arrival = if h.last > arrival then h.last else arrival in
    h.last <- arrival;
    (* Endpoints are never removed, so resolving [dst] now finds the
       endpoint a lookup at delivery time would. *)
    let deliver =
      match Hashtbl.find t.endpoints dst with
      | d -> d.on_frame
      | exception Not_found -> no_endpoint
    in
    Loop.frame_at t.loop ~time:arrival deliver frame dsize
  end

let rec fan_out ep frame dsize ~src_blocked = function
  | [] -> ()
  | id :: rest ->
      if id <> ep.ep_id then send_copy ep frame dsize ~src_blocked id;
      fan_out ep frame dsize ~src_blocked rest

let send ep ~dest ~flow:_ ~size msg =
  let t = ep.net in
  (* A frame holds the codec bytes only, and the datagram size rides
     beside it into every copy's frame slot: a data frame stands for a
     datagram of the configured packet size, whose tail nobody reads
     ([Wire.decode_data] ignores it), and a report frame keeps its
     exact length, the only one [Wire.decode_report] accepts.  Each
     send allocates one fresh frame, shared by all its copies; it must
     not be a reused scratch buffer, since it stays immutable until the
     last copy in flight lands. *)
  let frame =
    Bytes.create
      (match msg with
      | Wire.Report _ -> Wire.encoded_report_size
      | Wire.Data _ -> Wire.encoded_data_size)
  in
  let dsize = if size > Bytes.length frame then size else Bytes.length frame in
  match
    match msg with
    | Wire.Report r -> Wire.encode_report_into frame r
    | Wire.Data d -> Wire.encode_data_into frame d
  with
  | exception Invalid_argument _ ->
      (* A non-finite field slipped past the protocol core: drop the
         frame, as a real transport would, and make it visible. *)
      t.enc_drops <- t.enc_drops + 1;
      Obs.Metrics.Counter.inc t.m_enc
  | (_ : int) -> (
      let src_blocked = is_blocked t ep.ep_id in
      match dest with
      | Env.To_node id -> if id <> ep.ep_id then send_copy ep frame dsize ~src_blocked id
      | Env.To_group -> fan_out ep frame dsize ~src_blocked (members t ep.session))

let env ep =
  {
    Env.id = ep.ep_id;
    clock = Loop.clock ep.net.loop;
    after = (fun ~delay fn -> Loop.after ep.net.loop ~delay fn);
    after_unit = (fun ~delay fn -> Loop.after_unit ep.net.loop ~delay fn);
    at = (fun ~time fn -> Loop.at ep.net.loop ~time fn);
    send = (fun ~dest ~flow ~size msg -> send ep ~dest ~flow ~size msg);
    join = (fun () -> join ep);
    leave = (fun () -> leave ep);
    split_rng = (fun () -> Loop.split_rng ep.net.loop);
    obs = Loop.obs ep.net.loop;
  }

let frames_sent t = t.sent

let frames_delivered t = t.delivered

let frames_lost t = t.lost

let encode_drops t = t.enc_drops

let decode_errors t = t.dec_errors

let partition_drops t = t.partition_drops

let flap_drops t = t.flap_drops
