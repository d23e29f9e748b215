(* Span tracer for the traced benchmark runs.

   Spans are opened and closed from the benchmark's own wrappers around
   calls into the library (the root [Engine.run]/[Loop.run], every
   endpoint's timer callbacks and [send], every deliver hook), so each
   layer is measured from outside by timing calls into its public
   functions.  A layer's self time is its spans' duration minus the part
   their child spans cover; minor-heap words are attributed the same way.

   Everything stays in preallocated arrays while the run is going:
   entering and leaving a span reads the monotonic clock and
   [Gc.minor_words] through unboxed externals, so the tracer itself
   allocates nothing (see {!words_per_span}).

   A tracer created with [~measure:false] keeps the span structure
   (calls, nesting) but reads neither clock nor counter and records no
   messages: run next to a measuring one, it prices the measuring
   tracer's own bookkeeping. *)

(* Layers a span can belong to. *)
let netsim = 0

let rt_loop = 1

let sender = 2

let receiver = 3

let send = 4

let names =
  [| "netsim.engine"; "rt.loop"; "tfmcc.sender"; "tfmcc.receiver"; "transport.send" |]

let n_layers = Array.length names

(* CLOCK_MONOTONIC in nanoseconds, from bechamel's stub: unboxed and
   allocation-free, and the same clock in every process on the host, so
   a parent can hand its reading to a child (set-up time from process
   start). *)
external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now_ns () = Int64.to_int (clock_ns ())

let max_depth = 32

(* Messages handed to [send], kept for the codec replay. *)
let max_msgs = 100_000

type t = {
  measure : bool;
  self_ns : int array;
  self_words : float array;
  calls : int array;
  children : int array;  (* spans closed directly inside a span of the layer *)
  (* The open spans, innermost at [depth]. *)
  st_layer : int array;
  st_t0 : int array;
  st_w0 : float array;
  st_child_ns : int array;
  st_child_words : float array;
  mutable depth : int;
  mutable msgs : Tfmcc_core.Wire.msg array;
  mutable n_msgs : int;
}

let create ?(measure = true) () =
  {
    measure;
    self_ns = Array.make n_layers 0;
    self_words = Array.make n_layers 0.;
    calls = Array.make n_layers 0;
    children = Array.make n_layers 0;
    st_layer = Array.make max_depth 0;
    st_t0 = Array.make max_depth 0;
    st_w0 = Array.make max_depth 0.;
    st_child_ns = Array.make max_depth 0;
    st_child_words = Array.make max_depth 0.;
    depth = -1;
    msgs = [||];
    n_msgs = 0;
  }

let enter t layer =
  let d = t.depth + 1 in
  t.depth <- d;
  t.st_layer.(d) <- layer;
  if t.measure then begin
    t.st_child_ns.(d) <- 0;
    t.st_child_words.(d) <- 0.;
    t.st_w0.(d) <- Gc.minor_words ();
    t.st_t0.(d) <- now_ns ()
  end

let leave t =
  let d = t.depth in
  let layer = t.st_layer.(d) in
  t.calls.(layer) <- t.calls.(layer) + 1;
  t.depth <- d - 1;
  if d > 0 then begin
    let parent = t.st_layer.(d - 1) in
    t.children.(parent) <- t.children.(parent) + 1
  end;
  if t.measure then begin
    let t1 = now_ns () in
    let w1 = Gc.minor_words () in
    let ns = t1 - t.st_t0.(d) in
    let words = w1 -. t.st_w0.(d) in
    t.self_ns.(layer) <- t.self_ns.(layer) + ns - t.st_child_ns.(d);
    t.self_words.(layer) <- t.self_words.(layer) +. words -. t.st_child_words.(d);
    if d > 0 then begin
      t.st_child_ns.(d - 1) <- t.st_child_ns.(d - 1) + ns;
      t.st_child_words.(d - 1) <- t.st_child_words.(d - 1) +. words
    end
  end

let run t layer f =
  enter t layer;
  match f () with
  | () -> leave t
  | exception e ->
      leave t;
      raise e

let record t msg =
  if t.measure && t.n_msgs < max_msgs then begin
    (* One major-heap array for the whole run, filled on first use. *)
    if t.n_msgs = 0 then t.msgs <- Array.make max_msgs msg;
    t.msgs.(t.n_msgs) <- msg;
    t.n_msgs <- t.n_msgs + 1
  end

(* Spans around an endpoint's environment: every timer callback it
   schedules runs in a [layer] span, every [send] in a [send] span.  The
   wrapper closure built per scheduled timer is charged to the layer
   that scheduled it. *)
let env t ~layer (e : Tfmcc_core.Env.t) =
  let wrap f () = run t layer f in
  {
    e with
    Tfmcc_core.Env.after = (fun ~delay f -> e.Tfmcc_core.Env.after ~delay (wrap f));
    after_unit = (fun ~delay f -> e.Tfmcc_core.Env.after_unit ~delay (wrap f));
    at = (fun ~time f -> e.Tfmcc_core.Env.at ~time (wrap f));
    send =
      (fun ~dest ~flow ~size msg ->
        record t msg;
        enter t send;
        match e.Tfmcc_core.Env.send ~dest ~flow ~size msg with
        | () -> leave t
        | exception x ->
            leave t;
            raise x);
  }

let nested_spans t = Array.fold_left ( + ) 0 t.children

(* Self time of a layer with the tracer's own cost taken out: each span
   closed inside it cost [span_ns] of bookkeeping that its clock
   readings put on the enclosing span. *)
let self_ns t ~span_ns layer =
  float_of_int t.self_ns.(layer) -. (span_ns *. float_of_int t.children.(layer))

(* Minor words one enter/leave pair allocates: 0 unless the tracer has
   regressed. *)
let words_per_span () =
  let n = 100_000 in
  let c = create () in
  let span = Sys.opaque_identity run and body = Sys.opaque_identity ignore in
  enter c netsim;
  for _ = 1 to n do
    span c send body
  done;
  leave c;
  (c.self_words.(netsim) +. c.self_words.(send)) /. float_of_int n
