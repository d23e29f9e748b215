type injector = Packet.t -> Link.fault_action

type t = {
  engine : Engine.t;
  rng : Stats.Rng.t;
  (* Per-link injector chains, keyed by physical link identity (links are
     few and long-lived; an assoc list keeps netsim free of hashing over
     abstract types). *)
  mutable chains : (Link.t * injector list ref) list;
  mutable corruptions : int;
  mutable duplications : int;
  mutable reorderings : int;
  mutable drops_injected : int;
  mutable link_flaps : int;
  mutable partitions : int;
  mutable crashes : int;
  mutable graceful_leaves : int;
  obs : Obs.Sink.t;
  m_corruptions : Obs.Metrics.Counter.t;
  m_duplications : Obs.Metrics.Counter.t;
  m_reorderings : Obs.Metrics.Counter.t;
  m_drops : Obs.Metrics.Counter.t;
  m_flaps : Obs.Metrics.Counter.t;
  m_partitions : Obs.Metrics.Counter.t;
  m_crashes : Obs.Metrics.Counter.t;
  m_leaves : Obs.Metrics.Counter.t;
}

let fault_scope = Obs.Journal.scope "netsim.fault"

(* Structural faults (flaps, partitions, churn) are journaled; the
   per-packet injections (corrupt/duplicate/reorder/drop) are counted in
   the registry only, so a high-rate injector cannot flood protocol
   transitions out of the bounded journal ring. *)
let journal t ?severity ev =
  Obs.Sink.event t.obs ~time:(Engine.now t.engine) ?severity fault_scope ev

let create engine =
  let obs = Engine.obs engine in
  let m = obs.Obs.Sink.metrics in
  {
    engine;
    rng = Engine.split_rng engine;
    chains = [];
    corruptions = 0;
    duplications = 0;
    reorderings = 0;
    drops_injected = 0;
    link_flaps = 0;
    partitions = 0;
    crashes = 0;
    graceful_leaves = 0;
    obs;
    m_corruptions = Obs.Metrics.counter m "netsim_fault_corruptions_total";
    m_duplications = Obs.Metrics.counter m "netsim_fault_duplications_total";
    m_reorderings = Obs.Metrics.counter m "netsim_fault_reorderings_total";
    m_drops = Obs.Metrics.counter m "netsim_fault_drops_injected_total";
    m_flaps = Obs.Metrics.counter m "netsim_fault_link_flaps_total";
    m_partitions = Obs.Metrics.counter m "netsim_fault_partitions_total";
    m_crashes = Obs.Metrics.counter m "netsim_fault_crashes_total";
    m_leaves = Obs.Metrics.counter m "netsim_fault_graceful_leaves_total";
  }

(* ------------------------------------------------- failures / partitions *)

let down_at t link ~time =
  ignore
    (Engine.at t.engine ~time (fun () ->
         if Link.is_up link then begin
           t.link_flaps <- t.link_flaps + 1;
           Obs.Metrics.Counter.inc t.m_flaps;
           journal t ~severity:Obs.Journal.Warn
             (Obs.Journal.Fault
                {
                  kind = "link_down";
                  detail =
                    Printf.sprintf "%d->%d"
                      (Node.id (Link.src link))
                      (Node.id (Link.dst link));
                });
           Link.set_up link false
         end))

let up_at t link ~time =
  ignore
    (Engine.at t.engine ~time (fun () ->
         if not (Link.is_up link) then
           journal t
             (Obs.Journal.Fault
                {
                  kind = "link_up";
                  detail =
                    Printf.sprintf "%d->%d"
                      (Node.id (Link.src link))
                      (Node.id (Link.dst link));
                });
         Link.set_up link true))

let flap t link ~down_at:d ~up_at:u =
  if u <= d then invalid_arg "Fault.flap: up_at must follow down_at";
  down_at t link ~time:d;
  up_at t link ~time:u

let flap_every t link ~first_down ~period ~down_for ~until =
  if period <= 0. then invalid_arg "Fault.flap_every: period must be positive";
  if down_for <= 0. || down_for >= period then
    invalid_arg "Fault.flap_every: down_for must be in (0, period)";
  let rec cycle d =
    if d <= until then begin
      flap t link ~down_at:d ~up_at:(d +. down_for);
      cycle (d +. period)
    end
  in
  cycle first_down

let partition t ~links ~from_ ~until =
  if until <= from_ then invalid_arg "Fault.partition: until must follow from_";
  if links = [] then invalid_arg "Fault.partition: empty link set";
  ignore
    (Engine.at t.engine ~time:from_ (fun () ->
         t.partitions <- t.partitions + 1;
         Obs.Metrics.Counter.inc t.m_partitions;
         journal t ~severity:Obs.Journal.Error
           (Obs.Journal.Fault
              {
                kind = "partition";
                detail = Printf.sprintf "%d links until %g" (List.length links) until;
              });
         List.iter
           (fun l ->
             if Link.is_up l then begin
               t.link_flaps <- t.link_flaps + 1;
               Obs.Metrics.Counter.inc t.m_flaps;
               Link.set_up l false
             end)
           links));
  ignore
    (Engine.at t.engine ~time:until (fun () ->
         journal t
           (Obs.Journal.Fault
              {
                kind = "partition_heal";
                detail = Printf.sprintf "%d links" (List.length links);
              });
         List.iter (fun l -> Link.set_up l true) links))

(* -------------------------------------------------------------- injectors *)

let chain_for t link =
  match List.find_opt (fun (l, _) -> l == link) t.chains with
  | Some (_, c) -> c
  | None ->
      let c = ref [] in
      t.chains <- (link, c) :: t.chains;
      (* One combined hook per link: injectors run in installation order,
         first non-`Pass action wins. *)
      Link.set_fault link
        (Some
           (fun p ->
             let rec eval = function
               | [] -> `Pass
               | inj :: rest -> (
                   match inj p with `Pass -> eval rest | act -> act)
             in
             eval (List.rev !c)));
      c

let windowed t ~from_ ~until fire =
  let from_ = Option.value from_ ~default:neg_infinity in
  let until = Option.value until ~default:infinity in
  fun p ->
    let now = Engine.now t.engine in
    if now < from_ || now > until then `Pass else fire p

let check_rate rate =
  if rate < 0. || rate > 1. then invalid_arg "Fault: injector rate out of [0,1]"

let add_injector t link inj =
  let c = chain_for t link in
  c := inj :: !c

let corrupt t link ?from_ ?until ~rate ~mangle () =
  check_rate rate;
  add_injector t link
    (windowed t ~from_ ~until (fun p ->
         if Stats.Rng.bernoulli t.rng rate then begin
           t.corruptions <- t.corruptions + 1;
           Obs.Metrics.Counter.inc t.m_corruptions;
           `Replace (mangle t.rng p)
         end
         else `Pass))

let duplicate t link ?from_ ?until ~rate () =
  check_rate rate;
  add_injector t link
    (windowed t ~from_ ~until (fun _ ->
         if Stats.Rng.bernoulli t.rng rate then begin
           t.duplications <- t.duplications + 1;
           Obs.Metrics.Counter.inc t.m_duplications;
           `Duplicate
         end
         else `Pass))

let reorder t link ?from_ ?until ~rate ~extra_delay () =
  check_rate rate;
  if extra_delay <= 0. then invalid_arg "Fault.reorder: extra_delay must be positive";
  add_injector t link
    (windowed t ~from_ ~until (fun _ ->
         if Stats.Rng.bernoulli t.rng rate then begin
           t.reorderings <- t.reorderings + 1;
           Obs.Metrics.Counter.inc t.m_reorderings;
           `Delay (Stats.Rng.uniform_pos t.rng *. extra_delay)
         end
         else `Pass))

let drop t link ?from_ ?until ~rate () =
  check_rate rate;
  add_injector t link
    (windowed t ~from_ ~until (fun _ ->
         if Stats.Rng.bernoulli t.rng rate then begin
           t.drops_injected <- t.drops_injected + 1;
           Obs.Metrics.Counter.inc t.m_drops;
           `Drop
         end
         else `Pass))

let clear_injectors t link =
  match List.find_opt (fun (l, _) -> l == link) t.chains with
  | None -> ()
  | Some (_, c) ->
      c := [];
      t.chains <- List.filter (fun (l, _) -> not (l == link)) t.chains;
      Link.set_fault link None

(* ------------------------------------------------------------------ churn *)

type churn_kind = Crash | Graceful

let churn t ~at ~kind apply =
  ignore
    (Engine.at t.engine ~time:at (fun () ->
         (match kind with
         | Crash ->
             t.crashes <- t.crashes + 1;
             Obs.Metrics.Counter.inc t.m_crashes;
             journal t ~severity:Obs.Journal.Warn
               (Obs.Journal.Fault { kind = "crash"; detail = "" })
         | Graceful ->
             t.graceful_leaves <- t.graceful_leaves + 1;
             Obs.Metrics.Counter.inc t.m_leaves;
             journal t (Obs.Journal.Fault { kind = "graceful_leave"; detail = "" }));
         apply kind))

(* --------------------------------------------------------------- counters *)

let corruptions t = t.corruptions

let duplications t = t.duplications

let reorderings t = t.reorderings

let drops_injected t = t.drops_injected

let link_flaps t = t.link_flaps

let partitions t = t.partitions

let crashes t = t.crashes

let graceful_leaves t = t.graceful_leaves

let describe t =
  Printf.sprintf
    "faults: %d flaps, %d partitions, %d corruptions, %d duplications, %d \
     reorderings, %d injected drops, %d crashes, %d graceful leaves"
    t.link_flaps t.partitions t.corruptions t.duplications t.reorderings
    t.drops_injected t.crashes t.graceful_leaves
