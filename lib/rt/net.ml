(* The rt transport: endpoints over the loopback fabric or kernel UDP
   sockets (see net.mli). *)

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

type error_class = Transient | Degraded | Fatal

(* The taxonomy (DESIGN.md §15): Transient errors are pressure that a
   bounded retry can ride out; Degraded means this datagram (or this
   peer) is lost but the socket is fine — drop and move on, which is
   what UDP promises anyway; anything else is Fatal: the socket itself
   is broken and the session owning it cannot make progress. *)
let classify = function
  | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ENOBUFS | Unix.ENOMEM ->
      Transient
  | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EHOSTUNREACH | Unix.EHOSTDOWN
  | Unix.ENETUNREACH | Unix.ENETDOWN | Unix.EMSGSIZE | Unix.EPIPE ->
      Degraded
  | _ -> Fatal

let kind_of_error = function
  | Unix.EAGAIN | Unix.EWOULDBLOCK -> "eagain"
  | Unix.EINTR -> "eintr"
  | Unix.ENOBUFS -> "enobufs"
  | Unix.ENOMEM -> "enomem"
  | Unix.ECONNREFUSED -> "refused"
  | Unix.ECONNRESET -> "reset"
  | Unix.EHOSTUNREACH | Unix.EHOSTDOWN -> "host-unreach"
  | Unix.ENETUNREACH | Unix.ENETDOWN -> "net-unreach"
  | Unix.EMSGSIZE -> "msgsize"
  | Unix.EPIPE -> "pipe"
  | _ -> "fatal"

type endpoint = {
  ep_id : int;
  session : int;
  net : t;
  mutable deliver : (size:int -> Wire.msg -> unit) option;
  on_frame : Wire.msg -> int -> unit;
      (* [deliver_frame] bound to this endpoint, built once: what a
         fabric copy's frame slot fires, and what a socket's drain calls,
         for a copy addressed here *)
  mutable paths : (int, Event_heap.time_cell) Hashtbl.t option;
      (* fabric: dst id -> FIFO horizon from here: the latest arrival
         time scheduled on the (src, dst) path, and the base each copy on
         it is scheduled from.  Made on the first send, so building
         thousands of endpoints allocates no table. *)
  sock : sock option; (* sockets: this endpoint's bound socket *)
}

and sock = {
  fd : Unix.file_descr;
  addr : Unix.sockaddr;
  mutable dead : bool; (* fatal socket error observed, or closed; no further IO *)
}

and t = {
  loop : Loop.t;
  way : way; (* how a copy travels, fixed at construction *)
  buf : bytes;
      (* every send's codec scratch.  On the fabric nothing reads it
         back: the encode only vets the frame, and copies carry the
         sender's own message; on sockets [Unix.sendto] copies it into
         the kernel synchronously, and only the codec header is ever
         written, so its padding tail stays all-zero *)
  endpoints : (int, endpoint) Hashtbl.t;
  groups : (int, int list) Hashtbl.t; (* session -> member ids, ascending *)
  (* Chaos state (DESIGN.md §15).  [blocked] refcounts endpoints taken
     out by partitions/churn — overlapping windows may block the same
     endpoint twice, and it only resurfaces once every window heals.
     [blocked_n] caches the live entry count so the clean-path send
     pays two int compares, not hash lookups. *)
  blocked : (int, int) Hashtbl.t;
  mutable blocked_n : int;
  mutable fabric_up : bool;
  mutable next_id : int;
  mutable on_fatal : (session:int -> endpoint:int -> exn -> unit) option;
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

and way = Fabric of fabric | Sockets of sockets

and fabric = {
  impair : impairment;
  loss : float;
      (* [impair.loss] in a field of this mixed record, so boxed once
         here: read from the flat [impairment] record, it would be boxed
         again on every copy's way into [Stats.Rng.bernoulli] *)
  rng : Stats.Rng.t; (* impairment draws, split off the loop's master *)
  loss_from : float; (* loop time the loss dice start rolling *)
}

and sockets = {
  rbuf : bytes; (* every drain's receive buffer *)
  mutable send_errs : int;
  mutable send_shed : int;
  mutable enobufs_streak : int;
  mutable shed_until : float;
  (* First-occurrence-per-(endpoint,kind) journal dedup: a saturated
     socket can fail thousands of times a second, and the journal ring
     is bounded — one entry per failure mode per endpoint is the signal,
     the counters carry the volume. *)
  journaled : (int * string, unit) Hashtbl.t;
  kind_counters : (string * string, Obs.Metrics.Counter.t) Hashtbl.t;
}

let make loop way buf =
  let m = (Loop.obs loop).Obs.Sink.metrics in
  {
    loop;
    way;
    buf;
    endpoints = Hashtbl.create 64;
    groups = Hashtbl.create 16;
    blocked = Hashtbl.create 16;
    blocked_n = 0;
    fabric_up = true;
    next_id = 0;
    on_fatal = None;
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

let create loop ?(impair = impairment ()) () =
  let rng = Loop.split_rng loop in
  make loop
    (Fabric
       { impair; loss = impair.loss; rng; loss_from = Loop.now loop +. impair.warmup })
    (Bytes.create (max Wire.encoded_data_size Wire.encoded_report_size))

let create_udp loop =
  if Loop.mode loop = Loop.Turbo then
    invalid_arg "Net.create_udp: needs a realtime loop (virtual time outruns sockets)";
  make loop
    (Sockets
       {
         rbuf = Bytes.create 65536;
         send_errs = 0;
         send_shed = 0;
         enobufs_streak = 0;
         shed_until = neg_infinity;
         journaled = Hashtbl.create 16;
         kind_counters = Hashtbl.create 8;
       })
    (Bytes.make 65536 '\000')

let loop t = t.loop

let sessions t =
  List.sort compare (Hashtbl.fold (fun sid _ acc -> sid :: acc) t.groups [])

let set_on_fatal t f = t.on_fatal <- Some f

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

(* ------------------------------------------------------- socket errors *)

let counter t s family kind =
  match Hashtbl.find_opt s.kind_counters (family, kind) with
  | Some c -> c
  | None ->
      let c =
        Obs.Metrics.counter (Loop.obs t.loop).Obs.Sink.metrics
          ~labels:[ ("kind", kind) ]
          family
      in
      Hashtbl.replace s.kind_counters (family, kind) c;
      c

let journal_first t s ep ~severity ~kind ~detail =
  if not (Hashtbl.mem s.journaled (ep.ep_id, kind)) then begin
    Hashtbl.replace s.journaled (ep.ep_id, kind) ();
    Obs.Sink.event (Loop.obs t.loop) ~time:(Loop.now t.loop) ~severity
      (Obs.Journal.scope ~session:ep.session ~node:ep.ep_id "rt.udp")
      (Obs.Journal.Fault { kind; detail })
  end

let send_error t s ep ~kind ~detail =
  s.send_errs <- s.send_errs + 1;
  Obs.Metrics.Counter.inc (counter t s "tfmcc_rt_send_error_total" kind);
  journal_first t s ep ~severity:Obs.Journal.Warn ~kind:("send-" ^ kind) ~detail

let recv_error t s ep ~kind ~detail =
  Obs.Metrics.Counter.inc (counter t s "tfmcc_rt_recv_error_total" kind);
  journal_first t s ep ~severity:Obs.Journal.Warn ~kind:("recv-" ^ kind) ~detail

let fatal t s ep sock ~dir exn ~kind =
  sock.dead <- true;
  Loop.unwatch_fd t.loop sock.fd;
  journal_first t s ep ~severity:Obs.Journal.Error ~kind:(dir ^ "-fatal")
    ~detail:(kind ^ ": " ^ Printexc.to_string exn);
  match t.on_fatal with
  | None -> ()
  | Some f -> f ~session:ep.session ~endpoint:ep.ep_id exn

(* ---------------------------------------------------------- endpoints *)

(* What a copy that cannot be decoded carries: on the fabric, every
   copy of a frame that fails [Wire.frame_valid] still travels its
   path; on sockets, a drain hands it on for a datagram it cannot
   decode.  Either way it counts a decode error where its endpoint would
   deliver. *)
let undecodable =
  Wire.Data
    {
      session = -2;
      seq = -1;
      ts = 0.;
      rate = 0.;
      round = 0;
      round_duration = 0.;
      max_rtt = 0.;
      clr = -1;
      in_slowstart = false;
      echo = None;
      fb = None;
      app = -1;
    }

let deliver_frame ep msg size =
  match ep.deliver with
  | None -> ()
  | Some f ->
      let t = ep.net in
      if msg == undecodable then begin
        t.dec_errors <- t.dec_errors + 1;
        Obs.Metrics.Counter.inc t.m_dec
      end
      else begin
        t.delivered <- t.delivered + 1;
        Obs.Metrics.Counter.inc t.m_delivered;
        f ~size msg
      end

let drain t s ep sock =
  let rec go () =
    if sock.dead then ()
    else
      match Unix.recvfrom sock.fd s.rbuf 0 (Bytes.length s.rbuf) [] with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception (Unix.Unix_error (err, _, _) as e) -> (
          let kind = kind_of_error err in
          recv_error t s ep ~kind ~detail:"recv";
          match classify err with
          | Transient ->
              (* Pressure (ENOBUFS/ENOMEM): counted; yield, select will
                 call us back, retrying here would spin. *)
              ()
          | Degraded ->
              (* e.g. ECONNREFUSED surfaced from a peer's ICMP
                 unreachable — that datagram is gone, the socket is
                 fine; keep draining. *)
              go ()
          | Fatal -> fatal t s ep sock ~dir:"recv" e ~kind)
      | len, _from ->
          (* Decoded in place: the next [recvfrom] reuses [rbuf] only
             after the message is built. *)
          (match ep.deliver with
          | None -> ()
          | Some _ ->
              ep.on_frame
                (match Wire.decode ~len s.rbuf with Ok m -> m | Error _ -> undecodable)
                len);
          go ()
  in
  go ()

let bind_socket () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.set_nonblock fd;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  { fd; addr = Unix.getsockname fd; dead = false }

let endpoint t ~session =
  let sock = match t.way with Fabric _ -> None | Sockets _ -> Some (bind_socket ()) in
  let rec ep =
    {
      ep_id = t.next_id;
      session;
      net = t;
      deliver = None;
      on_frame = (fun msg size -> deliver_frame ep msg size);
      paths = None;
      sock;
    }
  in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.endpoints ep.ep_id ep;
  (match (t.way, sock) with
  | Sockets s, Some sock -> Loop.watch_fd t.loop sock.fd (fun () -> drain t s ep sock)
  | _ -> ());
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

(* ---------------------------------------------------------------- send *)

(* Every copy, on either way, is counted as sent and then passes the
   chaos checks.  They happen at send time: frames already in flight
   when a partition or flap begins still land, like packets on the wire
   when a real link goes down behind them. *)
let admit t ~src_blocked dst =
  t.sent <- t.sent + 1;
  Obs.Metrics.Counter.inc t.m_sent;
  if not t.fabric_up then begin
    t.flap_drops <- t.flap_drops + 1;
    Obs.Metrics.Counter.inc t.m_flap;
    false
  end
  else if src_blocked || is_blocked t dst then begin
    t.partition_drops <- t.partition_drops + 1;
    Obs.Metrics.Counter.inc t.m_partition;
    false
  end
  else true

(* A copy addressed to an unknown id still fires, as a no-op, so the
   loop's timer count does not depend on whether the id exists. *)
let no_endpoint (_ : Wire.msg) (_ : int) = ()

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
      let h = { Event_heap.cell_time = neg_infinity } in
      Hashtbl.add paths dst h;
      h

(* One copy of [msg] offered to the fabric path from [ep] to [dst]. *)
let fabric_copy ep f msg dsize ~src_blocked dst =
  let t = ep.net in
  if admit t ~src_blocked dst then
    if
      f.loss > 0.
      && (Loop.clock t.loop).Event_heap.cell_time >= f.loss_from
      && Stats.Rng.bernoulli f.rng f.loss
    then begin
      t.lost <- t.lost + 1;
      Obs.Metrics.Counter.inc t.m_lost
    end
    else begin
      (* The jitter draw is scaled here, as [Stats.Rng.uniform] scales
         it, so the same value arrives without a boxed float. *)
      let extra =
        if f.impair.jitter > 0. then
          f.impair.jitter *. (float_of_int (Stats.Rng.bits53 f.rng) *. 0x1p-53)
        else 0.
      in
      (* Jitter must not reorder a path: like a netem-shaped FIFO link
         (and like the simulator's queues), an arrival never precedes the
         previous arrival on the same (src,dst).  The copy is scheduled
         from the horizon cell itself, so the arrival time stays a raw
         double from the clock cell to the heap. *)
      let arrival = (Loop.clock t.loop).Event_heap.cell_time +. f.impair.delay +. extra in
      let h = horizon ep dst in
      if h.Event_heap.cell_time <= arrival then h.Event_heap.cell_time <- arrival;
      (* Endpoints are never removed, so resolving [dst] now finds the
         endpoint a lookup at delivery time would. *)
      let deliver =
        match Hashtbl.find t.endpoints dst with
        | d -> d.on_frame
        | exception Not_found -> no_endpoint
      in
      Loop.frame_at t.loop ~base:h ~offset:0. deliver msg dsize
    end

let rec fabric_fan_out ep f msg dsize ~src_blocked = function
  | [] -> ()
  | id :: rest ->
      if id <> ep.ep_id then fabric_copy ep f msg dsize ~src_blocked id;
      fabric_fan_out ep f msg dsize ~src_blocked rest

(* Send-path tuning (see [create_udp] in net.mli). *)
let max_retries = 2

let retry_backoff_s = 0.0005

let shed_threshold = 16

let shed_window_s = 0.05

(* One datagram to one peer, with bounded retry for transient pressure.
   A sustained ENOBUFS streak opens a shedding window: for
   [shed_window_s] every copy is dropped without a syscall, giving the
   kernel queue room to drain instead of hammering it — classic
   load-shed, counted under kind="shed". *)
let send_one t s ep src peer frame frame_len =
  let rec attempt tries =
    match Unix.sendto src.fd frame 0 frame_len [] peer.addr with
    | n when n = frame_len -> s.enobufs_streak <- 0
    | _ -> send_error t s ep ~kind:"short_write" ~detail:"sendto"
    | exception Unix.Unix_error (err, _, _) -> (
        let kind = kind_of_error err in
        match classify err with
        | Transient ->
            if err = Unix.ENOBUFS then begin
              s.enobufs_streak <- s.enobufs_streak + 1;
              if s.enobufs_streak >= shed_threshold then begin
                s.enobufs_streak <- 0;
                s.shed_until <- Loop.now t.loop +. shed_window_s;
                journal_first t s ep ~severity:Obs.Journal.Warn ~kind:"send-shed"
                  ~detail:
                    (Printf.sprintf "enobufs streak >= %d, shedding %.0fms"
                       shed_threshold (shed_window_s *. 1e3))
              end
            end;
            if tries < max_retries && Loop.now t.loop >= s.shed_until then begin
              Obs.Metrics.Counter.inc (counter t s "tfmcc_rt_send_retries_total" kind);
              Unix.sleepf retry_backoff_s;
              attempt (tries + 1)
            end
            else send_error t s ep ~kind ~detail:"sendto"
        | Degraded -> send_error t s ep ~kind ~detail:"sendto"
        | Fatal ->
            send_error t s ep ~kind ~detail:"sendto";
            fatal t s ep src ~dir:"send" (Unix.Unix_error (err, "sendto", "")) ~kind)
  in
  attempt 0

(* One copy of the encoded [frame] offered to [dst]'s socket.  A copy
   to an unknown id or between dead sockets is not offered at all. *)
let socket_copy ep s frame frame_len ~src_blocked dst =
  let t = ep.net in
  match (ep.sock, Hashtbl.find_opt t.endpoints dst) with
  | Some src, Some { sock = Some peer; _ } when not (src.dead || peer.dead) ->
      if admit t ~src_blocked dst then
        if Loop.now t.loop < s.shed_until then begin
          (* Shedding window open: drop at the door, no syscall. *)
          s.send_shed <- s.send_shed + 1;
          Obs.Metrics.Counter.inc (counter t s "tfmcc_rt_send_error_total" "shed")
        end
        else send_one t s ep src peer frame frame_len
  | _ -> ()

let send ep ~dest ~flow:_ ~size msg =
  let t = ep.net in
  (* The frame is encoded once into the transport's scratch buffer.
     The datagram size is the [size] the sender passed, raised to the
     codec length: a data frame stands for a datagram of the configured
     packet size, whose tail nobody reads ([Wire.decode_data] ignores
     it), and a report frame keeps its exact length, the only one
     [Wire.decode_report] accepts. *)
  match
    match msg with
    | Wire.Report r -> Wire.encode_report_into t.buf r
    | Wire.Data d -> Wire.encode_data_into t.buf d
  with
  | exception Invalid_argument _ ->
      (* A non-finite field slipped past the protocol core: drop the
         frame, as a real transport would, and make it visible. *)
      t.enc_drops <- t.enc_drops + 1;
      Obs.Metrics.Counter.inc t.m_enc
  | n -> (
      let dsize = if size > n then size else n in
      let src_blocked = is_blocked t ep.ep_id in
      match t.way with
      | Fabric f -> (
          (* No decode: every copy carries the sender's own immutable
             message, as the simulator does, and the datagram size
             beside it into its frame slot.  [Wire.frame_valid] holds
             exactly when a decode of [t.buf] would succeed, and that
             decode would return a message equal to [msg]. *)
          let msg = if Wire.frame_valid msg then msg else undecodable in
          match dest with
          | Env.To_node id -> if id <> ep.ep_id then fabric_copy ep f msg dsize ~src_blocked id
          | Env.To_group -> fabric_fan_out ep f msg dsize ~src_blocked (members t ep.session))
      | Sockets s -> (
          (* Data frames go out padded with zeros to [dsize]. *)
          let frame =
            if dsize <= Bytes.length t.buf then t.buf
            else begin
              (* > 64 KiB: exceeds UDP anyway, and fails as EMSGSIZE *)
              let b = Bytes.make dsize '\000' in
              Bytes.blit t.buf 0 b 0 n;
              b
            end
          in
          match dest with
          | Env.To_node id -> if id <> ep.ep_id then socket_copy ep s frame dsize ~src_blocked id
          | Env.To_group ->
              List.iter
                (fun id -> if id <> ep.ep_id then socket_copy ep s frame dsize ~src_blocked id)
                (members t ep.session)))

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

let backend =
  {
    Session.env;
    on_data =
      (fun ep f ->
        set_deliver ep (fun ~size msg ->
            match msg with Wire.Data d -> f ~size d | Wire.Report _ -> ()));
    on_report =
      (fun ep f ->
        set_deliver ep (fun ~size:_ msg ->
            match msg with Wire.Report r -> f r | Wire.Data _ -> ()));
  }

let close t =
  Hashtbl.iter
    (fun _ ep ->
      match ep.sock with
      | Some sock when not sock.dead ->
          sock.dead <- true;
          Loop.unwatch_fd t.loop sock.fd;
          (try Unix.close sock.fd with Unix.Unix_error (_, _, _) -> ())
      | _ -> ())
    t.endpoints

let frames_sent t = t.sent

let frames_delivered t = t.delivered

let frames_lost t = t.lost

let encode_drops t = t.enc_drops

let decode_errors t = t.dec_errors

let partition_drops t = t.partition_drops

let flap_drops t = t.flap_drops

let send_errors t = match t.way with Fabric _ -> 0 | Sockets s -> s.send_errs

let send_shed t = match t.way with Fabric _ -> 0 | Sockets s -> s.send_shed
