type report = {
  r_rx_id : int;
  r_ts : float;
  r_echo_ts : float;
  r_echo_delay : float;
  r_rate : float;
  r_have_rtt : bool;
  r_rtt : float;
  r_p : float;
  r_x_recv : float;
  r_round : int;
  r_has_loss : bool;
  r_arrival : float;  (* local hold time, added to echo_delay on forward *)
}

type t = {
  env : Env.t;
  session : int;
  parent : int;
  mutable best : report option;
  mutable flush_timer : Env.timer option;
  mutable last_round_forwarded : int;
  mutable last_forwarded : report option;
  mutable reports_in : int;
}

(* The aggregation interval: the best report collected during it is
   forwarded when it expires. *)
let hold = 0.2

let reports_in t = t.reports_in

(* Lower is more restrictive; loss reports dominate rate-only ones. *)
let more_restrictive a b =
  if a.r_has_loss <> b.r_has_loss then a.r_has_loss else a.r_rate < b.r_rate

let forward t (r : report) ~leaving =
  let now = t.env.Env.clock.Event_heap.cell_time in
  t.env.Env.send
    ~dest:(Env.To_node t.parent)
    ~flow:(-1) ~size:Wire.report_size
    (Wire.Report
       {
         session = t.session;
         rx_id = r.r_rx_id;
         ts = r.r_ts;
         echo_ts = r.r_echo_ts;
         (* Account for the time the report sat in this aggregator so the
            sender-side RTT stays correct. *)
         echo_delay = r.r_echo_delay +. (now -. r.r_arrival);
         rate = r.r_rate;
         have_rtt = r.r_have_rtt;
         rtt = r.r_rtt;
         p = r.r_p;
         x_recv = r.r_x_recv;
         round = r.r_round;
         has_loss = r.r_has_loss;
         leaving;
       })

let flush t =
  t.flush_timer <- None;
  match t.best with
  | Some r ->
      t.best <- None;
      t.last_round_forwarded <- Stdlib.max t.last_round_forwarded r.r_round;
      t.last_forwarded <- Some r;
      forward t r ~leaving:false
  | None -> ()

(* At most one aggregated report per feedback round reaches the parent —
   a per-hold stream of fresh minima would make the sender track every
   downward fluctuation of the whole subtree (the Section-3 effect, but
   amplified).  A strictly more restrictive late report for the same
   round (e.g. the first loss report after a rate report) is still
   forwarded as an upgrade. *)
let on_report t (r : report) ~leaving =
  t.reports_in <- t.reports_in + 1;
  if leaving then forward t r ~leaving:true
  else if
    (* The presumptive CLR of this subtree (the receiver we last spoke
       for) keeps its immediate-feedback privilege: the sender's increase
       path depends on its regular reports. *)
    match t.last_forwarded with
    | Some prev when prev.r_rx_id = r.r_rx_id ->
        t.last_forwarded <- Some r;
        t.last_round_forwarded <- Stdlib.max t.last_round_forwarded r.r_round;
        forward t r ~leaving:false;
        true
    | _ -> false
  then ()
  else if r.r_round > t.last_round_forwarded then begin
    (match t.best with
    | Some cur when not (more_restrictive r cur) -> ()
    | Some _ | None -> t.best <- Some r);
    if t.flush_timer = None then
      t.flush_timer <- Some (t.env.Env.after ~delay:hold (fun () -> flush t))
  end
  else begin
    match t.last_forwarded with
    | Some prev when more_restrictive r prev ->
        t.last_forwarded <- Some r;
        forward t r ~leaving:false
    | Some _ -> ()
    | None -> forward t r ~leaving:false
  end

let deliver_report t (r : Wire.report) =
  if r.session = t.session then
    on_report t
      {
        r_rx_id = r.rx_id;
        r_ts = r.ts;
        r_echo_ts = r.echo_ts;
        r_echo_delay = r.echo_delay;
        r_rate = r.rate;
        r_have_rtt = r.have_rtt;
        r_rtt = r.rtt;
        r_p = r.p;
        r_x_recv = r.x_recv;
        r_round = r.round;
        r_has_loss = r.has_loss;
        r_arrival = t.env.Env.clock.Event_heap.cell_time;
      }
      ~leaving:r.leaving

let create ~env ~session ~parent =
  {
    env;
    session;
    parent;
    best = None;
    flush_timer = None;
    last_round_forwarded = -1;
    last_forwarded = None;
    reports_in = 0;
  }
