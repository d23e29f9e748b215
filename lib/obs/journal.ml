type severity = Debug | Info | Warn | Error

type scope = { component : string; session : int; node : int }

let scope ?(session = -1) ?(node = -1) component = { component; session; node }

type event =
  | Round_start of { round : int; duration : float; max_rtt : float }
  | Clr_change of { prev : int; clr : int }
  | Clr_drop of { clr : int; reason : string }
  | Rate_change of { from_bps : float; to_bps : float; reason : string }
  | Cwnd_change of { from_pkts : float; to_pkts : float; reason : string }
  | Slowstart_exit of { rate_bps : float }
  | Loss_event of { p : float }
  | Starvation of { rate_bps : float }
  | Timeout of { what : string }
  | Malformed_drop of { what : string }
  | Defense_reject of { rx : int; what : string }
  | Clr_damped of { rx : int }
  | Quarantine of { rx : int; until_ : float }
  | Join
  | Leave of { explicit : bool }
  | Fault of { kind : string; detail : string }
  | Note of string

type entry = {
  time : float;
  severity : severity;
  scope : scope;
  event : event;
}

type t = {
  on : bool;
  capacity : int;
  buffer : entry option array;
  mutable next : int;
  mutable recorded : int;
}

(* Entries a live journal retains; older ones rotate out. *)
let capacity = 65536

let create () =
  { on = true; capacity; buffer = Array.make capacity None; next = 0; recorded = 0 }

let null = { on = false; capacity = 1; buffer = [| None |]; next = 0; recorded = 0 }

let record t ~time ?(severity = Info) scope event =
  if t.on then begin
    t.buffer.(t.next) <- Some { time; severity; scope; event };
    t.next <- (t.next + 1) mod t.capacity;
    t.recorded <- t.recorded + 1
  end

let entries t =
  let out = ref [] in
  for i = 0 to t.capacity - 1 do
    let idx = (t.next + i) mod t.capacity in
    match t.buffer.(idx) with Some e -> out := e :: !out | None -> ()
  done;
  List.rev !out

let total_recorded t = t.recorded

let severity_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let count t ?min_severity () =
  List.length
    (List.filter
       (fun e ->
         match min_severity with
         | Some s -> severity_rank e.severity >= severity_rank s
         | None -> true)
       (entries t))

let count_events t pred =
  List.length (List.filter (fun e -> pred e.event) (entries t))

let event_name = function
  | Round_start _ -> "round_start"
  | Clr_change _ -> "clr_change"
  | Clr_drop _ -> "clr_drop"
  | Rate_change _ -> "rate_change"
  | Cwnd_change _ -> "cwnd_change"
  | Slowstart_exit _ -> "slowstart_exit"
  | Loss_event _ -> "loss_event"
  | Starvation _ -> "starvation"
  | Timeout _ -> "timeout"
  | Malformed_drop _ -> "malformed_drop"
  | Defense_reject _ -> "defense_reject"
  | Clr_damped _ -> "clr_damped"
  | Quarantine _ -> "quarantine"
  | Join -> "join"
  | Leave _ -> "leave"
  | Fault _ -> "fault"
  | Note _ -> "note"

let severity_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let event_fields = function
  | Round_start { round; duration; max_rtt } ->
      [
        ("round", Json.Int round);
        ("duration", Json.Float duration);
        ("max_rtt", Json.Float max_rtt);
      ]
  | Clr_change { prev; clr } -> [ ("prev", Json.Int prev); ("clr", Json.Int clr) ]
  | Clr_drop { clr; reason } ->
      [ ("clr", Json.Int clr); ("reason", Json.Str reason) ]
  | Rate_change { from_bps; to_bps; reason } ->
      [
        ("from_bps", Json.Float from_bps);
        ("to_bps", Json.Float to_bps);
        ("reason", Json.Str reason);
      ]
  | Cwnd_change { from_pkts; to_pkts; reason } ->
      [
        ("from_pkts", Json.Float from_pkts);
        ("to_pkts", Json.Float to_pkts);
        ("reason", Json.Str reason);
      ]
  | Slowstart_exit { rate_bps } -> [ ("rate_bps", Json.Float rate_bps) ]
  | Loss_event { p } -> [ ("p", Json.Float p) ]
  | Starvation { rate_bps } -> [ ("rate_bps", Json.Float rate_bps) ]
  | Timeout { what } -> [ ("what", Json.Str what) ]
  | Malformed_drop { what } -> [ ("what", Json.Str what) ]
  | Defense_reject { rx; what } ->
      [ ("rx", Json.Int rx); ("what", Json.Str what) ]
  | Clr_damped { rx } -> [ ("rx", Json.Int rx) ]
  | Quarantine { rx; until_ } ->
      [ ("rx", Json.Int rx); ("until", Json.Float until_) ]
  | Join -> []
  | Leave { explicit } -> [ ("explicit", Json.Bool explicit) ]
  | Fault { kind; detail } ->
      [ ("kind", Json.Str kind); ("detail", Json.Str detail) ]
  | Note note -> [ ("note", Json.Str note) ]

let pp_entry ppf e =
  let fields =
    event_fields e.event
    |> List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (Json.to_string v))
    |> String.concat " "
  in
  Format.fprintf ppf "%.6f %-5s %s s=%d n=%d %s%s%s" e.time
    (severity_name e.severity) e.scope.component e.scope.session e.scope.node
    (event_name e.event)
    (if fields = "" then "" else " ")
    fields

let entry_to_json e =
  Json.Obj
    ([
       ("t", Json.Float e.time);
       ("severity", Json.Str (severity_name e.severity));
       ("component", Json.Str e.scope.component);
       ("session", Json.Int e.scope.session);
       ("node", Json.Int e.scope.node);
       ("event", Json.Str (event_name e.event));
     ]
    @ event_fields e.event)

let to_json t = Json.Arr (List.map entry_to_json (entries t))
