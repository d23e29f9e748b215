(* Declarative chaos plans for the rt transport (see chaos.mli). *)

type spec =
  | Flap of { down_at : float; up_at : float }
  | Churn of {
      sessions : int list;
      fraction : float;
      from_ : float;
      until : float;
      period : float;
      down_for : float;
    }

type plan = spec list

let check_window name ~from_ ~until =
  if not (Float.is_finite from_ && from_ >= 0.) then
    invalid_arg (name ^ ": start must be finite and >= 0");
  if not (Float.is_finite until && until > from_) then
    invalid_arg (name ^ ": end must be finite and follow start")

let validate_spec = function
  | Flap { down_at; up_at } ->
      check_window "Chaos.flap" ~from_:down_at ~until:up_at
  | Churn { sessions = _; fraction; from_; until; period; down_for } ->
      check_window "Chaos.churn" ~from_ ~until;
      if not (Float.is_finite fraction && fraction > 0. && fraction <= 1.) then
        invalid_arg "Chaos.churn: fraction must be in (0,1]";
      if not (Float.is_finite period && period > 0.) then
        invalid_arg "Chaos.churn: period must be positive";
      if not (Float.is_finite down_for && down_for > 0.) then
        invalid_arg "Chaos.churn: down_for must be positive"

let validate plan = List.iter validate_spec plan

let describe_spec = function
  | Flap { down_at; up_at } ->
      Printf.sprintf "flap down@%gs up@%gs" down_at up_at
  | Churn { sessions; fraction; from_; until; period; down_for } ->
      Printf.sprintf "churn %g%% of %s every %gs (down %gs) %g..%gs"
        (fraction *. 100.)
        (match sessions with
        | [] -> "all sessions"
        | l -> Printf.sprintf "%d session(s)" (List.length l))
        period down_for from_ until

let describe plan = String.concat "; " (List.map describe_spec plan)

type t = {
  net : Net.t;
  rng : Stats.Rng.t; (* churn victim selection, split off the loop master *)
}

let scope = Obs.Journal.scope "rt.chaos"

let event t ?severity ~kind ~detail () =
  let loop = Net.loop t.net in
  Obs.Metrics.Counter.inc
    (Obs.Metrics.counter (Loop.obs loop).Obs.Sink.metrics
       ~labels:[ ("kind", kind) ]
       "tfmcc_rt_chaos_events_total");
  Obs.Sink.event (Loop.obs loop) ~time:(Loop.now loop) ?severity scope
    (Obs.Journal.Fault { kind; detail })

let schedule t ~at:time fn =
  ignore (Loop.at (Net.loop t.net) ~time fn : Tfmcc_core.Env.timer)

let arm_flap t ~base ~down_at ~up_at =
  schedule t ~at:(base +. down_at) (fun () ->
      Net.set_fabric_up t.net false;
      event t ~severity:Obs.Journal.Warn ~kind:"flap_down" ~detail:"" ());
  schedule t ~at:(base +. up_at) (fun () ->
      Net.set_fabric_up t.net true;
      event t ~kind:"flap_up" ~detail:"" ())

(* One churn cycle: for every targeted session, take a seeded sample of
   the currently joined members down, then heal them [down_for] later
   (clamped to the window end so the plan leaves no standing block).
   Membership is read at cycle time, not plan time, so churn follows
   sessions that started after [apply]. *)
let churn_cycle t ~sessions ~fraction ~heal_at =
  let sessions = match sessions with [] -> Net.sessions t.net | l -> l in
  List.iter
    (fun sid ->
      let members = Array.of_list (Net.members t.net sid) in
      let n = Array.length members in
      if n > 0 then begin
        let k = max 1 (int_of_float (Float.round (fraction *. float n))) in
        let k = min k n in
        Stats.Rng.shuffle_in_place t.rng members;
        for i = 0 to k - 1 do
          let id = members.(i) in
          Net.block t.net id;
          event t ~severity:Obs.Journal.Warn ~kind:"churn_down"
            ~detail:(Printf.sprintf "session=%d endpoint=%d" sid id)
            ();
          schedule t ~at:heal_at (fun () ->
              Net.unblock t.net id;
              event t ~kind:"churn_up"
                ~detail:(Printf.sprintf "session=%d endpoint=%d" sid id)
                ())
        done
      end)
    sessions

let arm_churn t ~base ~sessions ~fraction ~from_ ~until ~period ~down_for =
  let tc = ref from_ in
  while !tc < until do
    let cycle = !tc in
    let heal_at = base +. Float.min until (cycle +. down_for) in
    schedule t ~at:(base +. cycle) (fun () ->
        churn_cycle t ~sessions ~fraction ~heal_at);
    tc := !tc +. period
  done

let apply net plan =
  validate plan;
  let loop = Net.loop net in
  let t = { net; rng = Loop.split_rng loop } in
  let base = Loop.now loop in
  List.iter
    (function
      | Flap { down_at; up_at } -> arm_flap t ~base ~down_at ~up_at
      | Churn { sessions; fraction; from_; until; period; down_for } ->
          arm_churn t ~base ~sessions ~fraction ~from_ ~until ~period ~down_for)
    plan;
  t
