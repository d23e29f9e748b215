(* The benchmark's command line and parent process (see README.md).

     main.exe --workload W --seed N --seconds S --trace 0|1
       Repeats workload W, one fresh process per repetition, for about S
       seconds; prints a summary table on stderr and, as the last line of
       stdout, one JSON object with the end-to-end metrics (--trace 0) or
       the per-layer metrics (--trace 1).
     main.exe run [--workload W]... [--seed N] [--reps K] [--commit C]
       Interleaves the workloads (W1 W2 .. W1 W2 ..) K times each and
       prints median, quartiles and n per (workload, metric) as one JSON
       line, the format of history.jsonl.
     main.exe trace --workload W [--seed N] [--seconds S]
       The per-layer run of the first form, 25 s by default.
     main.exe smoke
       Every workload at tiny sizes, entry and trace runs; checks that
       every metric named in ./BENCHMARK.json is produced, that the
       mirrors reproduce the entry points' counts and that the trace
       reconciles.
     main.exe rep --workload W --variant V --seed N --size standard|smoke
       --t-spawn NS
       One run of one variant (internal: what the forms above spawn). *)

open Workload

(* ------------------------------------------------------------ metrics *)

let e2e_metrics =
  [
    ("setup_s", "s");
    ("pkts_per_s", "1/s");
    ("wall_s", "s");
    ("minor_words_per_pkt", "words/pkt");
    ("peak_rss_mb", "MB");
    ("ok_frac", "ratio");
  ]

let layer_metrics =
  [
    ("netsim.engine.self_ns_per_pkt", "ns/pkt");
    ("netsim.engine.events_per_pkt", "events/pkt");
    ("netsim.engine.words_per_pkt", "words/pkt");
    ("tfmcc.receiver.self_ns_per_pkt", "ns/pkt");
    ("tfmcc.receiver.words_per_pkt", "words/pkt");
    ("tfmcc.receiver.suppressed_frac", "ratio");
    ("tfmcc.sender.self_ns_per_pkt", "ns/pkt");
    ("tfmcc.sender.words_per_pkt", "words/pkt");
    ("transport.send.self_ns_per_pkt", "ns/pkt");
    ("transport.send.sends_per_pkt", "sends/pkt");
    ("transport.send.words_per_pkt", "words/pkt");
    ("rt.loop.self_ns_per_pkt", "ns/pkt");
    ("rt.loop.timers_per_pkt", "timers/pkt");
    ("rt.loop.words_per_pkt", "words/pkt");
    ("tfmcc.wire.encode_ns", "ns");
    ("tfmcc.wire.decode_ns", "ns");
    ("rt.harness.ns_per_pkt", "ns/pkt");
    ("obs.ns_per_pkt", "ns/pkt");
    ("gc.promoted_words_per_pkt", "words/pkt");
    ("gc.major_collections", "count");
  ]
  @ List.map
      (fun e -> ("experiments." ^ e.Experiments.Registry.id ^ ".run_s", "s"))
      Experiments.Registry.all
  @ [
      ("golden.digest_s", "s");
      ("par.busy_frac", "ratio");
      ("trace.overhead_frac", "ratio");
      ("trace.reconcile_err", "ratio");
    ]

(* The trace must add back up to the untraced run within this share. *)
let reconcile_limit = 0.10

let get fields k = match List.assoc_opt k fields with Some v -> v | None -> 0.

let e2e_of fields =
  let pkts = Float.max 1. (get fields "pkts") in
  [
    ("setup_s", get fields "setup_s");
    ("pkts_per_s", pkts /. get fields "wall_s");
    ("wall_s", get fields "wall_s");
    ("minor_words_per_pkt", get fields "minor_words" /. pkts);
    ("peak_rss_mb", get fields "peak_rss_mb");
    ("ok_frac", get fields "ok_units" /. get fields "units");
  ]

(* Per-layer metrics of one trace cycle: the traced run's own numbers
   (which include its comparisons with its lockstep twins), plus the
   ones that compare separate processes — supervision cost
   ([Harness.run] minus the solo mirror) and, on sweep-golden, tracing
   overhead against the untraced sweep — and GC from the entry run.
   Layers a workload does not exercise read 0. *)
let layers_of w runs =
  let entry = List.assoc Entry runs and traced = List.assoc Traced runs in
  let pkts = Float.max 1. (get entry "pkts") in
  let compared =
    match w with
    | Sweep_golden ->
        let e = get entry "wall_s" and t = get traced "wall_s" in
        [ ("trace.overhead_frac", (t /. e) -. 1.); ("trace.reconcile_err", Float.abs (t -. e) /. e) ]
    | Rt_fleet | Rt_chaos ->
        let mirror = get (List.assoc Mirror runs) "wall_s" in
        [ ("rt.harness.ns_per_pkt", (get entry "wall_s" -. mirror) *. 1e9 /. pkts) ]
    | Sim_fanout -> []
  in
  let gc =
    [
      ("gc.promoted_words_per_pkt", get entry "promoted_words" /. pkts);
      ("gc.major_collections", get entry "major_collections");
    ]
  in
  let all = compared @ gc @ traced in
  List.map (fun (name, _) -> (name, get all name)) layer_metrics

(* Every [count.*] of the entry run must read the same in each mirror,
   and the traced run's lockstep twins must agree with each other. *)
let count_mismatches w runs =
  let entry = List.assoc Entry runs in
  List.concat_map
    (fun (v, fields) ->
      List.filter_map
        (fun (k, x) ->
          if not (String.starts_with ~prefix:"count." k) then None
          else
            match List.assoc_opt k fields with
            | Some y when y <> x ->
                Some (Printf.sprintf "%s: %s %s %.0f, entry %.0f" (name w) (variant_name v) k y x)
            | _ -> None)
        entry
      @
      if get fields "trace.count_mismatches" > 0. then
        [ Printf.sprintf "%s: the traced run's lockstep twins disagree on counts" (name w) ]
      else [])
    (List.filter (fun (v, _) -> v <> Entry) runs)

(* ------------------------------------------------------------ statistics *)

(* Median and quartiles by linear interpolation between order statistics
   (the "exclusive" method of Python's statistics.quantiles). *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else
    let p = Float.min (fi n) (Float.max 1. (q *. fi (n + 1))) in
    let j = int_of_float (Float.floor p) in
    let d = p -. fi j in
    if j >= n then sorted.(n - 1) else sorted.(j - 1) +. (d *. (sorted.(j) -. sorted.(j - 1)))

let summary values =
  let a = Array.of_list values in
  Array.sort compare a;
  (quantile a 0.5, quantile a 0.25, quantile a 0.75, Array.length a)

let median values =
  let m, _, _, _ = summary values in
  m

(* ------------------------------------------------------------ processes *)

let size_name size = if size == Workload.smoke then "smoke" else "standard"

(* Repetition [i]'s seed: the run's seed first, then seeds derived from
   it, so a run's median covers several inputs of the workload. *)
let rep_seed seed i = if i = 0 then seed else Hashtbl.hash (seed, i) land 0x3fff_ffff

let parse_fields line =
  match Obs.Json.of_string line with
  | Ok (Obs.Json.Obj kvs) ->
      Ok
        (List.filter_map
           (fun (k, v) ->
             match v with
             | Obs.Json.Float f -> Some (k, f)
             | Obs.Json.Int i -> Some (k, fi i)
             | _ -> None)
           kvs)
  | Ok _ -> Error "not a JSON object"
  | Error e -> Error e

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* Runs one variant in a fresh process and reads the JSON line it
   prints last. *)
let spawn w variant ~seed ~size =
  let exe = Sys.executable_name in
  let t_spawn = Span.now_ns () in
  let args =
    [|
      exe; "rep"; "--workload"; name w; "--variant"; variant_name variant; "--seed";
      string_of_int seed; "--size"; size_name size; "--t-spawn"; string_of_int t_spawn;
    |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe args Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let status = waitpid pid in
  let what = Printf.sprintf "%s/%s seed %d" (name w) (variant_name variant) seed in
  let last =
    List.fold_left
      (fun acc l -> if String.trim l = "" then acc else l)
      "" (String.split_on_char '\n' out)
  in
  match status with
  | Unix.WEXITED 0 -> (
      match parse_fields last with
      | Ok fields -> Ok fields
      | Error e -> Error (Printf.sprintf "%s: unreadable result (%s)" what e))
  | Unix.WEXITED c -> Error (Printf.sprintf "%s: exited with code %d" what c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> Error (Printf.sprintf "%s: killed by signal %d" what s)

(* Calls [f i] for i = 0, 1, .. while the next call is expected to end
   within [seconds] of the start, at least [min_calls] and at most
   [max_calls] times.  Each result comes with the host-speed factor
   around its call: the reference kernel's nominal time over its mean
   time just before and just after ({!Host}). *)
let for_seconds ?(min_calls = 1) ?(max_calls = max_int) ?(reference = true) seconds f =
  let kernel () = if reference then Host.kernel_s () else Host.nominal_s in
  let t0 = Span.now_ns () in
  let rec go i k_before acc =
    let r = f i in
    let k_after = kernel () in
    let acc = (r, Host.nominal_s /. ((k_before +. k_after) /. 2.)) :: acc in
    let elapsed = secs (Span.now_ns () - t0) in
    let per_call = elapsed /. fi (i + 1) in
    if i + 1 >= max_calls || (i + 1 >= min_calls && elapsed +. per_call > seconds) then
      List.rev acc
    else go (i + 1) k_after acc
  in
  go 0 (kernel ()) []

(* A repetition's metrics in reference seconds: times scale by its
   host-speed factor, rates by the inverse. *)
let to_reference catalogue (row, factor) =
  List.map
    (fun (name, v) ->
      match List.assoc name catalogue with
      | "s" | "ns" | "ns/pkt" -> (name, v *. factor)
      | "1/s" -> (name, v /. factor)
      | _ -> (name, v))
    row

(* ------------------------------------------------------------ output *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result ~correct ~attempted ~failed metrics =
  let items =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " items)

(* Rows that read 0 throughout (layers the workload does not use) are
   left out. *)
let print_table title rows =
  Printf.eprintf "%s\n" title;
  List.iter
    (fun (name, unit, values) ->
      if List.exists (fun v -> v <> 0.) values then
        let m, q1, q3, n = summary values in
        Printf.eprintf "  %-36s %14.6g %-10s [q1 %.6g, q3 %.6g, n %d]\n" name m unit q1 q3 n)
    rows;
  flush stderr

let report_errors errors = List.iter (Printf.eprintf "perfbench: %s\n") errors

(* ------------------------------------------------------------ run modes *)

type outcome = {
  metrics : (string * string * float list) list;  (* name, unit, one value per repetition *)
  factors : float list;  (* host-speed factor of each repetition *)
  attempted : int;
  failed : int;
  errors : string list;  (* correctness problems; empty when correct *)
}

let correct o = o.errors = []

let e2e_outcome w results =
  let ok = List.filter_map (function Ok f, k -> Some (f, k) | Error _, _ -> None) results in
  let crashed = List.filter_map (function Error e, _ -> Some e | Ok _, _ -> None) results in
  let failed = List.fold_left (fun a (f, _) -> a + int_of_float (get f "errors")) 0 ok in
  let rows = List.map (fun (f, k) -> to_reference e2e_metrics (e2e_of f, k)) ok in
  let ok = List.map fst ok in
  {
    metrics =
      List.map (fun (name, unit) -> (name, unit, List.map (fun r -> List.assoc name r) rows)) e2e_metrics;
    factors = List.map snd results;
    attempted =
      List.fold_left (fun a f -> a + int_of_float (get f "units")) (List.length crashed) ok;
    failed = failed + List.length crashed;
    errors =
      crashed
      @
      if failed > 0 then [ Printf.sprintf "%s: %d unit(s) of work failed" (name w) failed ]
      else [];
  }

(* [strict]: a median [trace.reconcile_err] above the limit is an error,
   not only a warning.  On sweep-golden the trace only times task
   boundaries and its two comparisons are between separate processes,
   so they are reported but not checked. *)
let trace_outcome w ~strict cycles =
  let complete, crashed =
    List.partition_map
      (fun (runs, k) ->
        match List.find_opt (fun (_, r) -> Result.is_error r) runs with
        | Some (_, Error e) -> Right e
        | _ -> Left (List.map (fun (v, r) -> (v, Result.get_ok r)) runs, k))
      cycles
  in
  let rows = List.map (fun (runs, k) -> to_reference layer_metrics (layers_of w runs, k)) complete in
  let complete = List.map fst complete in
  let failed =
    List.fold_left
      (fun a runs -> List.fold_left (fun a (_, f) -> a + int_of_float (get f "errors")) a runs)
      0 complete
  in
  let attempted =
    List.fold_left
      (fun a runs -> a + int_of_float (get (List.assoc Entry runs) "units"))
      (List.length crashed) complete
  in
  let reconcile =
    if rows = [] then 0. else median (List.map (fun r -> List.assoc "trace.reconcile_err" r) rows)
  in
  let unreconciled =
    if reconcile <= reconcile_limit || w = Sweep_golden then []
    else [ Printf.sprintf "%s: trace.reconcile_err %.3f > %.2f" (name w) reconcile reconcile_limit ]
  in
  if not strict then report_errors unreconciled;
  {
    metrics =
      List.map (fun (name, unit) -> (name, unit, List.map (fun r -> List.assoc name r) rows)) layer_metrics;
    factors = List.map snd cycles;
    attempted;
    failed = failed + List.length crashed;
    errors =
      crashed
      @ List.concat_map (count_mismatches w) complete
      @ (if failed > 0 then [ Printf.sprintf "%s: %d unit(s) of work failed" (name w) failed ]
         else [])
      @ if strict then unreconciled else [];
  }

(* One end-to-end repetition.  A sweep sets up only once per
   repetition, so its [setup_s] is the median over that and ten set-up
   probes. *)
let e2e_rep w ~seed ~size =
  match (w, spawn w Entry ~seed ~size) with
  | Sweep_golden, Ok fields ->
      let probes =
        List.filter_map
          (fun _ -> Result.to_option (spawn w Setup ~seed ~size))
          (List.init 10 Fun.id)
      in
      let setup = median (List.map (fun f -> get f "setup_s") (fields :: probes)) in
      Ok (("setup_s", setup) :: List.remove_assoc "setup_s" fields)
  | _, r -> r

let measure ?(strict = false) ?min_calls ?reference w ~seed ~seconds ~trace ~size =
  if trace then
    trace_outcome w ~strict
      (for_seconds ?min_calls ?reference seconds (fun i ->
           let seed = rep_seed seed i in
           List.map (fun v -> (v, spawn w v ~seed ~size)) (trace_variants w)))
  else
    e2e_outcome w
      (for_seconds ?reference seconds (fun i -> e2e_rep w ~seed:(rep_seed seed i) ~size))

let contract w ~seed ~seconds ~trace =
  let o = measure w ~seed ~seconds ~trace ~size:Workload.standard in
  report_errors o.errors;
  match o.metrics with
  | (_, _, []) :: _ | [] ->
      prerr_endline "perfbench: no repetition completed";
      exit 1
  | metrics ->
      print_table
        (Printf.sprintf "%s, seed %d, %s, host-speed factor %.3f" (name w) seed
           (if trace then "per-layer" else "end-to-end")
           (median o.factors))
        metrics;
      let medians = List.map (fun (name, unit, vs) -> (name, unit, median vs)) metrics in
      let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) medians in
      if not finite then report_errors [ "a metric is not a finite number" ];
      print_result ~correct:(correct o && finite) ~attempted:o.attempted ~failed:o.failed medians

let today () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1) tm.Unix.tm_mday

let interleaved ws ~seed ~reps ~commit =
  let n = List.length ws in
  let runs =
    for_seconds ~min_calls:(reps * n) ~max_calls:(reps * n) 0. (fun i ->
        let w = List.nth ws (i mod n) in
        (w, e2e_rep w ~seed:(rep_seed seed (i / n)) ~size:Workload.standard))
  in
  let stat values =
    let m, q1, q3, n = summary values in
    Obs.Json.Obj
      [
        ("median", Obs.Json.Float m);
        ("q1", Obs.Json.Float q1);
        ("q3", Obs.Json.Float q3);
        ("n", Obs.Json.Int n);
      ]
  in
  let per_workload w =
    let o =
      e2e_outcome w (List.filter_map (fun ((w', r), k) -> if w' = w then Some (r, k) else None) runs)
    in
    report_errors o.errors;
    print_table
      (Printf.sprintf "%s, seed %d, host-speed factor %.3f" (name w) seed (median o.factors))
      o.metrics;
    ( name w,
      Obs.Json.Obj
        (List.map
           (fun (metric, unit, vs) ->
             ( metric,
               match vs with
               | [] -> Obs.Json.Null
               | vs -> (
                   match stat vs with
                   | Obs.Json.Obj kvs -> Obs.Json.Obj (kvs @ [ ("unit", Obs.Json.Str unit) ])
                   | j -> j) ))
           o.metrics
        @ [
            ("attempted", Obs.Json.Int o.attempted);
            ("failed", Obs.Json.Int o.failed);
            ("correct", Obs.Json.Bool (correct o));
          ]) )
  in
  print_endline
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("commit", Obs.Json.Str commit);
            ("date", Obs.Json.Str (today ()));
            ("seed", Obs.Json.Int seed);
            ("reps", Obs.Json.Int reps);
            ("workloads", Obs.Json.Obj (List.map per_workload ws));
          ]))

(* Names of every metric BENCHMARK.json declares. *)
let declared_metrics file =
  let text = In_channel.with_open_bin file In_channel.input_all in
  match Obs.Json.of_string text with
  | Ok (Obs.Json.Obj kvs) ->
      List.concat_map
        (fun key ->
          match List.assoc_opt key kvs with
          | Some (Obs.Json.Arr items) ->
              List.filter_map
                (function
                  | Obs.Json.Obj m -> (
                      match List.assoc_opt "name" m with Some (Obs.Json.Str s) -> Some s | _ -> None)
                  | _ -> None)
                items
          | _ -> [])
        [ "end_to_end"; "per_layer" ]
  | _ -> failwith (file ^ ": not a JSON object")

let smoke () =
  let t0 = Span.now_ns () in
  let problems = ref [] in
  let produced = ref [] in
  List.iter
    (fun w ->
      let e2e = measure ~reference:false w ~seed:42 ~seconds:0. ~trace:false ~size:Workload.smoke in
      let tr =
        measure ~strict:true ~min_calls:3 ~reference:false w ~seed:42 ~seconds:0. ~trace:true
          ~size:Workload.smoke
      in
      List.iter
        (fun o ->
          problems := !problems @ o.errors;
          produced :=
            !produced
            @ List.filter_map (fun (n, _, vs) -> if vs = [] then None else Some n) o.metrics)
        [ e2e; tr ];
      print_table (name w ^ " (smoke)") (e2e.metrics @ tr.metrics))
    Workload.all;
  let missing =
    List.filter (fun m -> not (List.mem m !produced)) (declared_metrics "BENCHMARK.json")
  in
  if missing <> [] then
    problems := !problems @ [ "not produced: " ^ String.concat ", " missing ];
  Printf.eprintf "smoke: %.2f s\n" (secs (Span.now_ns () - t0));
  report_errors !problems;
  if !problems <> [] then exit 1 else print_endline "smoke: ok"

(* ------------------------------------------------------------ arguments *)

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1\n\
    \       main.exe run [--workload W].. [--seed N] [--reps K] [--commit C]\n\
    \       main.exe trace --workload W [--seed N] [--seconds S]\n\
    \       main.exe smoke\n\
     workloads: sim-fanout rt-fleet rt-chaos sweep-golden";
  exit 2

(* [--key value] pairs; a key may repeat. *)
let rec pairs = function
  | k :: v :: rest when String.starts_with ~prefix:"--" k -> (k, v) :: pairs rest
  | [] -> []
  | _ -> usage ()

let int_arg opts k ~default =
  match List.assoc_opt k opts with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())

let float_arg opts k ~default =
  match List.assoc_opt k opts with
  | None -> default
  | Some v -> ( match float_of_string_opt v with Some x -> x | None -> usage ())

let workload_arg opts =
  match List.assoc_opt "--workload" opts with
  | Some s -> ( match Workload.of_name s with Some w -> w | None -> usage ())
  | None -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "rep" :: rest ->
      let opts = pairs rest in
      let variant =
        match Option.bind (List.assoc_opt "--variant" opts) variant_of_name with
        | Some v -> v
        | None -> usage ()
      in
      let size =
        match List.assoc_opt "--size" opts with
        | Some "smoke" -> Workload.smoke
        | Some "standard" | None -> Workload.standard
        | Some _ -> usage ()
      in
      let fields =
        Workload.run (workload_arg opts) variant ~seed:(int_arg opts "--seed" ~default:42)
          ~t_spawn:(int_arg opts "--t-spawn" ~default:0)
          size
      in
      print_endline
        (Obs.Json.to_string (Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Float v)) fields)))
  | "run" :: rest ->
      let opts = pairs rest in
      let ws =
        match List.filter_map (fun (k, v) -> if k = "--workload" then Some v else None) opts with
        | [] -> Workload.all
        | names ->
            List.map (fun s -> match Workload.of_name s with Some w -> w | None -> usage ()) names
      in
      interleaved ws ~seed:(int_arg opts "--seed" ~default:42)
        ~reps:(int_arg opts "--reps" ~default:5)
        ~commit:(Option.value (List.assoc_opt "--commit" opts) ~default:"")
  | "trace" :: rest ->
      let opts = pairs rest in
      contract (workload_arg opts) ~seed:(int_arg opts "--seed" ~default:42)
        ~seconds:(float_arg opts "--seconds" ~default:25.)
        ~trace:true
  | [ "smoke" ] -> smoke ()
  | args ->
      let opts = pairs args in
      let trace =
        match List.assoc_opt "--trace" opts with
        | Some "1" -> true
        | Some "0" | None -> false
        | Some _ -> usage ()
      in
      contract (workload_arg opts) ~seed:(int_arg opts "--seed" ~default:42)
        ~seconds:(float_arg opts "--seconds" ~default:25.)
        ~trace
