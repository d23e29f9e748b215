type injector = Packet.t -> Link.fault_action

type t = {
  engine : Engine.t;
  rng : Stats.Rng.t;
  (* Per-link injector chains in installation order, keyed by physical
     link identity (links are few and long-lived; an assoc list keeps
     netsim free of hashing over abstract types). *)
  mutable chains : (Link.t * injector list ref) list;
  obs : Obs.Sink.t;
  m_corruptions : Obs.Metrics.Counter.t;
  m_duplications : Obs.Metrics.Counter.t;
  m_reorderings : Obs.Metrics.Counter.t;
  m_flaps : Obs.Metrics.Counter.t;
  m_partitions : Obs.Metrics.Counter.t;
  m_crashes : Obs.Metrics.Counter.t;
}

let fault_scope = Obs.Journal.scope "netsim.fault"

(* Structural faults (partitions, crashes) are journaled; the per-packet
   injections (corrupt/duplicate/reorder) are counted in the registry
   only, so a high-rate injector cannot flood protocol transitions out
   of the bounded journal ring. *)
let journal t ?severity ev =
  Obs.Sink.event t.obs ~time:(Engine.now t.engine) ?severity fault_scope ev

let create engine =
  let obs = Engine.obs engine in
  let m = obs.Obs.Sink.metrics in
  let counter name = Obs.Metrics.counter m ("netsim_fault_" ^ name ^ "_total") in
  (* All eight are registered, in this order, zeros included: the rob
     experiments print every [netsim_fault_] counter in their notes and
     the golden digests hash the registry. *)
  let m_corruptions = counter "corruptions" in
  let m_duplications = counter "duplications" in
  let m_reorderings = counter "reorderings" in
  ignore (counter "drops_injected" : Obs.Metrics.Counter.t);
  let m_flaps = counter "link_flaps" in
  let m_partitions = counter "partitions" in
  let m_crashes = counter "crashes" in
  ignore (counter "graceful_leaves" : Obs.Metrics.Counter.t);
  {
    engine;
    rng = Engine.split_rng engine;
    chains = [];
    obs;
    m_corruptions;
    m_duplications;
    m_reorderings;
    m_flaps;
    m_partitions;
    m_crashes;
  }

(* ------------------------------------------------------------ partitions *)

let partition t ~links ~from_ ~until =
  if until <= from_ then invalid_arg "Fault.partition: until must follow from_";
  if links = [] then invalid_arg "Fault.partition: empty link set";
  ignore
    (Engine.at t.engine ~time:from_ (fun () ->
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

(* One combined hook per link: injectors run in installation order,
   first non-`Pass action wins. *)
let rec eval p = function
  | [] -> `Pass
  | inj :: rest -> ( match inj p with `Pass -> eval p rest | act -> act)

let add_injector t link ~rate inj =
  if rate < 0. || rate > 1. then invalid_arg "Fault: injector rate out of [0,1]";
  match List.find_opt (fun (l, _) -> l == link) t.chains with
  | Some (_, c) -> c := !c @ [ inj ]
  | None ->
      let c = ref [ inj ] in
      t.chains <- (link, c) :: t.chains;
      Link.set_fault link (Some (fun p -> eval p !c))

let corrupt t link ~rate ~mangle =
  add_injector t link ~rate (fun p ->
      if Stats.Rng.bernoulli t.rng rate then begin
        Obs.Metrics.Counter.inc t.m_corruptions;
        `Replace (mangle t.rng p)
      end
      else `Pass)

let duplicate t link ~rate =
  add_injector t link ~rate (fun _ ->
      if Stats.Rng.bernoulli t.rng rate then begin
        Obs.Metrics.Counter.inc t.m_duplications;
        `Duplicate
      end
      else `Pass)

let reorder t link ~rate ~extra_delay =
  if extra_delay <= 0. then invalid_arg "Fault.reorder: extra_delay must be positive";
  add_injector t link ~rate (fun _ ->
      if Stats.Rng.bernoulli t.rng rate then begin
        Obs.Metrics.Counter.inc t.m_reorderings;
        `Delay (Stats.Rng.uniform_pos t.rng *. extra_delay)
      end
      else `Pass)

(* ---------------------------------------------------------------- crashes *)

let crash t ~at apply =
  ignore
    (Engine.at t.engine ~time:at (fun () ->
         Obs.Metrics.Counter.inc t.m_crashes;
         journal t ~severity:Obs.Journal.Warn
           (Obs.Journal.Fault { kind = "crash"; detail = "" });
         apply ()))
