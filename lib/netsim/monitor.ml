let max_delay_samples = 100_000

type flow_state = {
  counter : Stats.Timeseries.Counter.t;
  mutable delays : float array;  (* ring buffer *)
  mutable delay_len : int;  (* total recorded (may exceed buffer) *)
  (* Registry instruments (thin client of the shared metrics plane). *)
  m_bytes : Obs.Metrics.Counter.t;
  m_packets : Obs.Metrics.Counter.t;
  m_delay : Obs.Metrics.Histogram.t;
}

type t = {
  engine : Engine.t;
  flows : (int, flow_state) Hashtbl.t;
  (* One-entry cache: [tap] fires once per delivered packet and almost
     always for the same flow, so the hot path skips the table lookup. *)
  mutable hot_flow : int;
  mutable hot_state : flow_state option;
}

let create engine =
  { engine; flows = Hashtbl.create 16; hot_flow = min_int; hot_state = None }

let rec flow_state t flow =
  match t.hot_state with
  | Some st when t.hot_flow = flow -> st
  | _ -> flow_state_slow t flow

and flow_state_slow t flow =
  match Hashtbl.find_opt t.flows flow with
  | Some st ->
      t.hot_flow <- flow;
      t.hot_state <- Some st;
      st
  | None ->
      let metrics = (Engine.obs t.engine).Obs.Sink.metrics in
      let labels = [ ("flow", string_of_int flow) ] in
      let st =
        {
          counter = Stats.Timeseries.Counter.create ();
          delays = Array.make 256 0.;
          delay_len = 0;
          m_bytes = Obs.Metrics.counter metrics ~labels "netsim_monitor_bytes_total";
          m_packets =
            Obs.Metrics.counter metrics ~labels "netsim_monitor_packets_total";
          m_delay =
            Obs.Metrics.histogram metrics ~labels "netsim_monitor_delay_seconds";
        }
      in
      Hashtbl.add t.flows flow st;
      t.hot_flow <- flow;
      t.hot_state <- Some st;
      st

let tap t (p : Packet.t) =
  let st = flow_state t p.flow in
  (* No float crosses a call here (the dev profile's [-opaque] would box
     it): the clock is read from its cell, the delay goes straight into
     its ring slot, and the histogram and the series read those two. *)
  let clock = Engine.time_cell t.engine in
  let cap = Array.length st.delays in
  if st.delay_len >= cap && cap < max_delay_samples then begin
    let bigger = Array.make (Stdlib.min max_delay_samples (2 * cap)) 0. in
    Array.blit st.delays 0 bigger 0 cap;
    st.delays <- bigger
  end;
  let slot = st.delay_len mod Array.length st.delays in
  st.delays.(slot) <- clock.Event_heap.cell_time -. p.created;
  st.delay_len <- st.delay_len + 1;
  Obs.Metrics.Counter.inc st.m_packets;
  Obs.Metrics.Counter.add st.m_bytes p.size;
  Obs.Metrics.Histogram.observe st.m_delay st.delays slot;
  Stats.Timeseries.Counter.record st.counter ~clock ~bytes:p.size

let watch_node t n = Node.attach n (tap t)

let watch_node_flow t n ~flow =
  Node.attach n (fun p -> if p.Packet.flow = flow then tap t p)

let throughput_bps t ~flow ~t_start ~t_end =
  match Hashtbl.find_opt t.flows flow with
  | None -> 0.
  | Some st -> Stats.Timeseries.Counter.throughput_bps st.counter ~t_start ~t_end

let rate_series_bps t ~flow ~bin ~t_end =
  match Hashtbl.find_opt t.flows flow with
  | None -> [||]
  | Some st -> Stats.Timeseries.Counter.rate_series_bps st.counter ~bin ~t_end

let delays t ~flow =
  match Hashtbl.find_opt t.flows flow with
  | None -> [||]
  | Some st ->
      let cap = Array.length st.delays in
      let n = Stdlib.min st.delay_len cap in
      if st.delay_len <= cap then Array.sub st.delays 0 n
      else begin
        (* Ring wrapped: oldest retained sample sits at delay_len mod cap. *)
        let start = st.delay_len mod cap in
        Array.init n (fun i -> st.delays.((start + i) mod cap))
      end

let delay_summary t ~flow =
  let d = delays t ~flow in
  if Array.length d = 0 then None else Some (Stats.Descriptive.summarize d)
