exception Violation of string

(* Relative slack on float comparisons: probes sample mid-computation
   state, and the rate machinery is float arithmetic — a bound violated
   by one ulp is numerical noise, not protocol drift. *)
let slack = 1e-9

type link_counts = {
  offered : int;
  drop_down : int;
  drop_ttl : int;
  drop_queue : int;
  queued : int;
  on_wire : int;
  sent : int;
  drop_loss : int;
  in_flight : int;
  delivered : int;
}

(* ------------------------------------------------------ pure predicates *)

let check_link_conservation c =
  let accounted =
    c.drop_down + c.drop_ttl + c.drop_queue + c.queued + c.on_wire + c.sent
  in
  if c.offered <> accounted then
    Error
      (Printf.sprintf
         "offered=%d <> down=%d + ttl=%d + queue=%d + queued=%d + wire=%d + \
          sent=%d (= %d)"
         c.offered c.drop_down c.drop_ttl c.drop_queue c.queued c.on_wire
         c.sent accounted)
  else
    let delivered_side = c.drop_loss + c.in_flight + c.delivered in
    if c.sent <> delivered_side then
      Error
        (Printf.sprintf
           "sent=%d <> loss=%d + in_flight=%d + delivered=%d (= %d)" c.sent
           c.drop_loss c.in_flight c.delivered delivered_side)
    else Ok ()

let check_loss_event_rate p =
  if Float.is_nan p then Error "loss-event rate is NaN"
  else if p < 0. || p > 1. then
    Error (Printf.sprintf "loss-event rate %g outside [0, 1]" p)
  else Ok ()

let check_rtt rtt =
  if not (Float.is_finite rtt) then
    Error (Printf.sprintf "RTT %g not finite" rtt)
  else if rtt <= 0. then Error (Printf.sprintf "RTT %g not positive" rtt)
  else Ok ()

let check_x_recv x =
  if not (Float.is_finite x) then
    Error (Printf.sprintf "x_recv %g not finite" x)
  else if x < 0. then Error (Printf.sprintf "x_recv %g negative" x)
  else Ok ()

let check_rate_bounds ~x_min ~x_max rate =
  if not (Float.is_finite rate) then
    Error (Printf.sprintf "rate %g not finite" rate)
  else if rate < x_min *. (1. -. slack) then
    Error (Printf.sprintf "rate %g below floor %g" rate x_min)
  else if rate > x_max *. (1. +. slack) then
    Error (Printf.sprintf "rate %g above cap %g" rate x_max)
  else Ok ()

let check_rate_ceiling ~in_slowstart ~starved ~clr_rate ~x_min ~rate =
  match clr_rate with
  | None -> Ok ()
  | Some _ when in_slowstart || starved -> Ok ()
  | Some clr_rate ->
      let ceiling = Float.max clr_rate x_min in
      if rate > ceiling *. (1. +. slack) then
        Error
          (Printf.sprintf
             "rate %g exceeds CLR-implied ceiling %g (clr_rate=%g floor=%g)"
             rate ceiling clr_rate x_min)
      else Ok ()

let check_clr_defined ~round ~reports ~clr_changes ~starved ~has_clr =
  if
    round >= 3 && reports > 0 && clr_changes = 0 && (not starved)
    && not has_clr
  then
    Error
      (Printf.sprintf
         "no CLR ever elected by round %d despite %d accepted reports" round
         reports)
  else Ok ()

let check_time_monotonic ~last ~now =
  if now < last then
    Error (Printf.sprintf "clock moved backwards: %.9f -> %.9f" last now)
  else Ok ()

(* --------------------------------------------------------------- checker *)

type probe = { probe_id : string; probe_run : unit -> (unit, string) result }

type attachment = {
  a_engine : Netsim.Engine.t;
  mutable a_probes : probe list;
}

type t = {
  t_strict : bool;
  mutable attachments : attachment list;
}

(* The sampling period of every probe, in simulated seconds. *)
let interval = 0.25

let create ?(strict = false) () = { t_strict = strict; attachments = [] }

let journal_window journal =
  let entries = Obs.Journal.entries journal in
  let n = List.length entries in
  let keep = 40 in
  let tail = List.filteri (fun i _ -> i >= n - keep) entries in
  let buf = Buffer.create 2048 in
  let fmt = Format.formatter_of_buffer buf in
  List.iter (fun e -> Format.fprintf fmt "%a@." Obs.Journal.pp_entry e) tail;
  Format.pp_print_flush fmt ();
  if Buffer.length buf = 0 then "(journal empty or disabled)\n"
  else Buffer.contents buf

let report_violation t engine ~id ~detail =
  let sink = Netsim.Engine.obs engine in
  let now = Netsim.Engine.now engine in
  Obs.Metrics.Counter.inc
    (Obs.Metrics.counter sink.Obs.Sink.metrics
       ~labels:[ ("invariant", id) ]
       "check_violations_total");
  Obs.Sink.event sink ~time:now ~severity:Obs.Journal.Error
    (Obs.Journal.scope "check")
    (Obs.Journal.Note (Printf.sprintf "%s: %s" id detail));
  if t.t_strict then
    raise
      (Violation
         (Printf.sprintf
            "invariant %s violated at t=%.6f: %s\n\
             --- journal window (most recent entries) ---\n\
             %s" id now detail
            (journal_window sink.Obs.Sink.journal)))

let run_probes t att () =
  List.iter
    (fun p ->
      match p.probe_run () with
      | Ok () -> ()
      | Error detail -> report_violation t att.a_engine ~id:p.probe_id ~detail)
    (List.rev att.a_probes)

let attachment_for t engine =
  match List.find_opt (fun a -> a.a_engine == engine) t.attachments with
  | Some a -> a
  | None ->
      let att = { a_engine = engine; a_probes = [] } in
      t.attachments <- att :: t.attachments;
      let samples =
        Obs.Metrics.counter
          (Netsim.Engine.obs engine).Obs.Sink.metrics "check_samples_total"
      in
      Netsim.Engine.every engine ~interval (fun () ->
          Obs.Metrics.Counter.inc samples;
          run_probes t att ());
      att

let add_probe t engine ~id run =
  let att = attachment_for t engine in
  att.a_probes <- { probe_id = id; probe_run = run } :: att.a_probes

let watch_engine t engine =
  add_probe t engine ~id:"event_queue" (fun () ->
      if Netsim.Engine.queue_consistent engine then Ok ()
      else Error "event heap ill-formed or pending event precedes the clock");
  let last = ref neg_infinity in
  add_probe t engine ~id:"time_monotonic" (fun () ->
      let now = Netsim.Engine.now engine in
      let r = check_time_monotonic ~last:!last ~now in
      last := Float.max !last now;
      r)

let watch_link t engine ?name link =
  let name =
    match name with
    | Some n -> n
    | None ->
        Printf.sprintf "%d->%d"
          (Netsim.Node.id (Netsim.Link.src link))
          (Netsim.Node.id (Netsim.Link.dst link))
  in
  add_probe t engine ~id:"link_conservation" (fun () ->
      let counts =
        {
          offered = Netsim.Link.packets_offered link;
          drop_down = Netsim.Link.drops_down link;
          drop_ttl = Netsim.Link.drops_ttl link;
          drop_queue = Netsim.Link.drops_queue link;
          queued = Netsim.Queue_disc.length (Netsim.Link.queue link);
          on_wire = (if Netsim.Link.busy link then 1 else 0);
          sent = Netsim.Link.packets_sent link;
          drop_loss = Netsim.Link.drops_loss link;
          in_flight = Netsim.Link.packets_in_flight link;
          delivered = Netsim.Link.packets_delivered link;
        }
      in
      match check_link_conservation counts with
      | Ok () -> Ok ()
      | Error d -> Error (Printf.sprintf "link %s: %s" name d))

let watch_session t engine ?(cfg = Tfmcc_core.Config.default) session =
  let open Tfmcc_core in
  let x_min = float_of_int cfg.Config.packet_size /. 64. in
  let x_max = cfg.Config.max_rate in
  add_probe t engine ~id:"rate_bounds" (fun () ->
      let s = Session.sender session in
      check_rate_bounds ~x_min ~x_max (Sender.rate_bytes_per_s s));
  add_probe t engine ~id:"rate_ceiling" (fun () ->
      let s = Session.sender session in
      check_rate_ceiling
        ~in_slowstart:(Sender.in_slowstart s)
        ~starved:(Sender.is_starved s) ~clr_rate:(Sender.clr_rate s) ~x_min
        ~rate:(Sender.rate_bytes_per_s s));
  add_probe t engine ~id:"clr_defined" (fun () ->
      let s = Session.sender session in
      check_clr_defined ~round:(Sender.round s)
        ~reports:(Sender.reports_received s)
        ~clr_changes:(Sender.clr_changes s) ~starved:(Sender.is_starved s)
        ~has_clr:(Sender.clr s <> None));
  let check_receivers f =
    List.fold_left
      (fun acc rx ->
        match acc with
        | Error _ -> acc
        | Ok () -> (
            match f rx with
            | Ok () -> Ok ()
            | Error d ->
                Error (Printf.sprintf "rx %d: %s" (Receiver.node_id rx) d)))
      (Ok ())
      (Session.receivers session)
  in
  add_probe t engine ~id:"loss_event_rate" (fun () ->
      check_receivers (fun rx -> check_loss_event_rate (Receiver.loss_event_rate rx)));
  add_probe t engine ~id:"rtt" (fun () ->
      check_receivers (fun rx -> check_rtt (Receiver.rtt rx)));
  add_probe t engine ~id:"x_recv" (fun () ->
      check_receivers (fun rx -> check_x_recv (Receiver.x_recv rx)))
