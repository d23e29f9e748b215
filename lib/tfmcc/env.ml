type timer = Event_heap.handle

let no_timer = Event_heap.no_handle

type dest = To_group | To_node of int

type t = {
  id : int;
  clock : Event_heap.time_cell;
  after : delay:float -> (unit -> unit) -> timer;
  (* Fire-and-forget [after]: no timer handle, so the runtime need not
     allocate one (the simulator schedules it allocation-free).  Callbacks
     that may outlive their purpose must guard themselves (generation
     counter or [running] flag) instead of cancelling. *)
  after_unit : delay:float -> (unit -> unit) -> unit;
  at : time:float -> (unit -> unit) -> timer;
  cancel : timer -> unit;
  send : dest:dest -> flow:int -> size:int -> Wire.msg -> unit;
  join : unit -> unit;
  leave : unit -> unit;
  split_rng : unit -> Stats.Rng.t;
  obs : Obs.Sink.t;
}

(* The counter is resolved on first anomaly rather than at startup:
   registration mutates the metrics registry, which is part of the
   golden-trace digest, and deterministic simulator runs never produce a
   clock anomaly — so lazy registration keeps their metrics JSON (and
   the 43 checked-in digests) bit-identical. *)
let clock_anomaly t ~kind =
  Obs.Metrics.Counter.inc
    (Obs.Metrics.counter t.obs.Obs.Sink.metrics
       ~labels:[ ("kind", kind) ]
       "tfmcc_rt_clock_anomaly_total")

let monotonic_clock ?on_anomaly raw =
  let last = ref neg_infinity in
  fun () ->
    let v = raw () in
    if v < !last then begin
      (match on_anomaly with Some f -> f (!last -. v) | None -> ());
      !last
    end
    else begin
      last := v;
      v
    end
