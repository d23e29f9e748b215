(* Real-UDP transport (see udp.mli). *)

open Tfmcc_core

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
  fd : Unix.file_descr;
  addr : Unix.sockaddr;
  net : t;
  mutable deliver : (size:int -> Wire.msg -> unit) option;
  mutable dead : bool; (* fatal socket error observed; no further IO *)
}

and t = {
  loop : Loop.t;
  endpoints : (int, endpoint) Hashtbl.t;
  groups : (int, int list) Hashtbl.t;  (* session -> ascending member ids *)
  buf : Bytes.t;
  sendbuf : Bytes.t;  (* shared scratch datagram; see [send] *)
  mutable next_id : int;
  mutable sent : int;
  mutable delivered : int;
  mutable send_errs : int;
  mutable send_shed : int;
  mutable dec_errors : int;
  mutable enobufs_streak : int;
  mutable shed_until : float;
  mutable on_fatal : (session:int -> endpoint:int -> exn -> unit) option;
  (* First-occurrence-per-(endpoint,kind) journal dedup: a saturated
     socket can fail thousands of times a second, and the journal ring
     is bounded — one entry per failure mode per endpoint is the signal,
     the counters carry the volume. *)
  journaled : (int * string, unit) Hashtbl.t;
  kind_counters : (string * string, Obs.Metrics.Counter.t) Hashtbl.t;
  (* The frame families {!Net} exports, so a UDP run's metrics carry
     them too. *)
  m_sent : Obs.Metrics.Counter.t;
  m_delivered : Obs.Metrics.Counter.t;
  m_dec : Obs.Metrics.Counter.t;
}

let scope_for ep =
  Obs.Journal.scope ~session:ep.session ~node:ep.ep_id "rt.udp"

let counter t family kind =
  match Hashtbl.find_opt t.kind_counters (family, kind) with
  | Some c -> c
  | None ->
      let c =
        Obs.Metrics.counter (Loop.obs t.loop).Obs.Sink.metrics
          ~labels:[ ("kind", kind) ]
          family
      in
      Hashtbl.replace t.kind_counters (family, kind) c;
      c

let journal_first t ep ~severity ~kind ~detail =
  if not (Hashtbl.mem t.journaled (ep.ep_id, kind)) then begin
    Hashtbl.replace t.journaled (ep.ep_id, kind) ();
    Obs.Sink.event (Loop.obs t.loop) ~time:(Loop.now t.loop) ~severity
      (scope_for ep)
      (Obs.Journal.Fault { kind; detail })
  end

let send_error t ep ~kind ~detail =
  t.send_errs <- t.send_errs + 1;
  Obs.Metrics.Counter.inc (counter t "tfmcc_rt_send_error_total" kind);
  journal_first t ep ~severity:Obs.Journal.Warn ~kind:("send-" ^ kind) ~detail

let recv_error t ep ~kind ~detail =
  Obs.Metrics.Counter.inc (counter t "tfmcc_rt_recv_error_total" kind);
  journal_first t ep ~severity:Obs.Journal.Warn ~kind:("recv-" ^ kind) ~detail

let fatal t ep ~dir exn ~kind =
  ep.dead <- true;
  Loop.unwatch_fd t.loop ep.fd;
  journal_first t ep ~severity:Obs.Journal.Error ~kind:(dir ^ "-fatal")
    ~detail:(kind ^ ": " ^ Printexc.to_string exn);
  match t.on_fatal with
  | None -> ()
  | Some f -> f ~session:ep.session ~endpoint:ep.ep_id exn

(* Send-path tuning (see [create] in udp.mli). *)
let max_retries = 2

let retry_backoff_s = 0.0005

let shed_threshold = 16

let shed_window_s = 0.05

let create loop =
  if Loop.mode loop = Loop.Turbo then
    invalid_arg "Udp.create: needs a realtime loop (virtual time outruns sockets)";
  let m = (Loop.obs loop).Obs.Sink.metrics in
  {
    loop;
    endpoints = Hashtbl.create 16;
    groups = Hashtbl.create 16;
    buf = Bytes.create 65536;
    sendbuf = Bytes.make 65536 '\000';
    next_id = 0;
    sent = 0;
    delivered = 0;
    send_errs = 0;
    send_shed = 0;
    dec_errors = 0;
    enobufs_streak = 0;
    shed_until = neg_infinity;
    on_fatal = None;
    journaled = Hashtbl.create 16;
    kind_counters = Hashtbl.create 8;
    m_sent = Obs.Metrics.counter m "tfmcc_rt_frames_sent_total";
    m_delivered = Obs.Metrics.counter m "tfmcc_rt_frames_delivered_total";
    m_dec =
      Obs.Metrics.counter m ~labels:[ ("reason", "decode") ] "tfmcc_rt_frame_drop_total";
  }

let set_on_fatal t f = t.on_fatal <- Some f

let drain ep =
  let t = ep.net in
  let rec go () =
    if ep.dead then ()
    else
      match Unix.recvfrom ep.fd t.buf 0 (Bytes.length t.buf) [] with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception (Unix.Unix_error (err, _, _) as e) -> (
          let kind = kind_of_error err in
          match classify err with
          | Transient ->
              (* Pressure (ENOBUFS/ENOMEM): count it and yield; select
                 will call us back, retrying here would spin. *)
              recv_error t ep ~kind ~detail:"recv"
          | Degraded ->
              (* e.g. ECONNREFUSED surfaced from a peer's ICMP
                 unreachable — that datagram is gone, the socket is
                 fine; keep draining. *)
              recv_error t ep ~kind ~detail:"recv";
              go ()
          | Fatal ->
              recv_error t ep ~kind ~detail:"recv";
              fatal t ep ~dir:"recv" e ~kind)
      | len, _from ->
          (* Decoded in place: the next [recvfrom] reuses [t.buf] only
             after the message is built. *)
          (match ep.deliver with
          | None -> ()
          | Some f -> (
              match Wire.decode ~len t.buf with
              | Ok msg ->
                  t.delivered <- t.delivered + 1;
                  Obs.Metrics.Counter.inc t.m_delivered;
                  f ~size:len msg
              | Error _ ->
                  t.dec_errors <- t.dec_errors + 1;
                  Obs.Metrics.Counter.inc t.m_dec));
          go ()
  in
  go ()

let endpoint t ~session =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.set_nonblock fd;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let addr = Unix.getsockname fd in
  let ep =
    { ep_id = t.next_id; session; fd; addr; net = t; deliver = None; dead = false }
  in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.endpoints ep.ep_id ep;
  Loop.watch_fd t.loop fd (fun () -> drain ep);
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

(* One datagram to one peer, with bounded retry for transient pressure.
   A sustained ENOBUFS streak opens a shedding window: for
   [shed_window_s] every frame is dropped without a syscall, giving the
   kernel queue room to drain instead of hammering it — classic
   load-shed, counted under kind="shed". *)
let send_one t ep peer frame frame_len =
  let rec attempt tries =
    match Unix.sendto ep.fd frame 0 frame_len [] peer.addr with
    | n when n = frame_len -> t.enobufs_streak <- 0
    | _ -> send_error t ep ~kind:"short_write" ~detail:"sendto"
    | exception Unix.Unix_error (err, _, _) -> (
        let kind = kind_of_error err in
        match classify err with
        | Transient ->
            if err = Unix.ENOBUFS then begin
              t.enobufs_streak <- t.enobufs_streak + 1;
              if t.enobufs_streak >= shed_threshold then begin
                t.enobufs_streak <- 0;
                t.shed_until <- Loop.now t.loop +. shed_window_s;
                journal_first t ep ~severity:Obs.Journal.Warn ~kind:"send-shed"
                  ~detail:
                    (Printf.sprintf "enobufs streak >= %d, shedding %.0fms"
                       shed_threshold (shed_window_s *. 1e3))
              end
            end;
            if tries < max_retries && Loop.now t.loop >= t.shed_until then begin
              Obs.Metrics.Counter.inc (counter t "tfmcc_rt_send_retries_total" kind);
              Unix.sleepf retry_backoff_s;
              attempt (tries + 1)
            end
            else send_error t ep ~kind ~detail:"sendto"
        | Degraded -> send_error t ep ~kind ~detail:"sendto"
        | Fatal ->
            send_error t ep ~kind ~detail:"sendto";
            fatal t ep ~dir:"send" (Unix.Unix_error (err, "sendto", "")) ~kind)
  in
  attempt 0

let send ep ~dest ~flow:_ ~size msg =
  let t = ep.net in
  if ep.dead then ()
  else if Loop.now t.loop < t.shed_until then begin
    (* Shedding window open: drop at the door, no syscall. *)
    let n =
      match dest with
      | Env.To_node id -> if id = ep.ep_id then 0 else 1
      | Env.To_group ->
          List.fold_left
            (fun n id -> if id = ep.ep_id then n else n + 1)
            0 (members t ep.session)
    in
    if n > 0 then begin
      t.send_shed <- t.send_shed + n;
      Obs.Metrics.Counter.add (counter t "tfmcc_rt_send_error_total" "shed") n
    end
  end
  else begin
    (* Encode into the fabric's shared scratch datagram: [Unix.sendto]
       copies the bytes into the kernel synchronously, so — unlike the
       loopback fabric, whose frames sit in timer closures until delivery
       — the buffer is free again the moment each sendto returns.  Zero
       allocation per frame.  Only the codec header region is ever
       written, so the padding tail stays all-zero across reuses; data
       frames pad to the configured packet size, report frames go out at
       their exact wire size. *)
    let enc_len =
      match msg with
      | Wire.Report _ -> Wire.encoded_report_size
      | Wire.Data _ -> Wire.encoded_data_size
    in
    let frame_len = if size > enc_len then size else enc_len in
    let frame =
      if frame_len <= Bytes.length t.sendbuf then t.sendbuf
      else Bytes.make frame_len '\000' (* > 64 KiB: exceeds UDP anyway *)
    in
    match
      match msg with
      | Wire.Report r -> Wire.encode_report_into frame r
      | Wire.Data d -> Wire.encode_data_into frame d
    with
    | exception Invalid_argument _ -> send_error t ep ~kind:"encode" ~detail:"encode"
    | (_ : int) -> (
        let send_to dst =
          if dst <> ep.ep_id then
            match Hashtbl.find_opt t.endpoints dst with
            | None -> ()
            | Some peer ->
                if not (ep.dead || peer.dead) then begin
                  t.sent <- t.sent + 1;
                  Obs.Metrics.Counter.inc t.m_sent;
                  send_one t ep peer frame frame_len
                end
        in
        match dest with
        | Env.To_node id -> send_to id
        | Env.To_group -> List.iter send_to (members t ep.session))
  end

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

let close t =
  Hashtbl.iter
    (fun _ ep ->
      Loop.unwatch_fd t.loop ep.fd;
      try Unix.close ep.fd with Unix.Unix_error (_, _, _) -> ())
    t.endpoints;
  Hashtbl.reset t.endpoints

let frames_sent t = t.sent

let frames_delivered t = t.delivered

let send_errors t = t.send_errs

let send_shed t = t.send_shed

let decode_errors t = t.dec_errors
