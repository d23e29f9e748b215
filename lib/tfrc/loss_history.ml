(* All-float scratch (raw double storage): the weighted averages land
   here instead of being returned boxed. *)
type floats = { mutable avg : float }

type t = {
  n : int;
  weights : float array;
  clock : Event_heap.time_cell;
  rtt : unit -> float;  (* read only when a gap opens *)
  first_interval : unit -> float option;
  (* Closed intervals, newest first; length <= n. *)
  mutable intervals : float list;
  mutable synced : bool;  (* first arrival seen (sets the seq baseline) *)
  mutable expected : int;  (* next expected sequence number *)
  mutable event_start_seq : int;  (* seq of first packet of current loss event *)
  mutable event_start_time : float;
  mutable events : int;
  mutable seen : int;
  (* Position of the synthetic first interval in [intervals], newest = 0;
     -1 when absent. *)
  mutable synthetic_pos : int;
  (* Recent loss gaps (first lost seq, detection time), the raw material
     for App. A's remodel: a ring of the newest [max_gap_log], the newest
     at [gap_next - 1].  The arrays are made at the first gap, so a
     history that never sees loss never holds them. *)
  mutable gap_seqs : int array;
  mutable gap_times : float array;
  mutable gap_next : int;  (* slot the next gap takes *)
  mutable gap_count : int;
  f : floats;
}

let max_gap_log = 64

(* Standard WALI weights: 1 for the newer half, then linearly decaying;
   for n = 8 this gives 1,1,1,1,0.8,0.6,0.4,0.2 (the paper's
   5,5,5,5,4,3,2,1 rescaled). *)
let make_weights n =
  Array.init n (fun i ->
      Float.min 1. (2. *. float_of_int (n - i) /. float_of_int (n + 2)))

let create ~clock ~rtt ?(n_intervals = 8) ?(first_interval = fun () -> None) () =
  if n_intervals < 2 then invalid_arg "Loss_history.create: need at least 2 intervals";
  {
    n = n_intervals;
    weights = make_weights n_intervals;
    clock;
    rtt;
    first_interval;
    intervals = [];
    synced = false;
    expected = 0;
    event_start_seq = -1;
    event_start_time = neg_infinity;
    events = 0;
    seen = 0;
    synthetic_pos = -1;
    gap_seqs = [||];
    gap_times = [||];
    gap_next = 0;
    gap_count = 0;
    f = { avg = 0. };
  }

(* The weighted average of [values] (newest first; the first n count),
   led by the open interval when [with_open], into [t.f.avg].  A loop
   rather than a closure over [List.iteri], so the running sums stay
   unboxed locals; the summation order is the list order, with the open
   interval first, so the open interval needs no list cell. *)
let weighted_average t ~with_open values =
  let num = ref 0. and den = ref 0. in
  let rest = ref values and i = ref 0 in
  if with_open then begin
    let v =
      if t.event_start_seq < 0 then 0.
      else float_of_int (t.expected - t.event_start_seq)
    in
    num := !num +. (t.weights.(0) *. v);
    den := !den +. t.weights.(0);
    i := 1
  end;
  while !i < t.n do
    match !rest with
    | v :: tl ->
        num := !num +. (t.weights.(!i) *. v);
        den := !den +. t.weights.(!i);
        rest := tl;
        incr i
    | [] -> i := t.n
  done;
  t.f.avg <- (if !den = 0. then 0. else !num /. !den)

(* The governing mean interval, into [t.f.avg]. *)
let update_mean t =
  match t.intervals with
  | [] -> t.f.avg <- infinity
  | intervals ->
      weighted_average t ~with_open:false intervals;
      let closed = t.f.avg in
      (* Include the open interval in place of the oldest if it increases
         the average (i.e. decreases p). *)
      weighted_average t ~with_open:true intervals;
      t.f.avg <- Float.max closed t.f.avg

let mean_interval t =
  update_mean t;
  t.f.avg

let[@inline] p_of_mean m =
  if m = infinity then 0. else Float.min 1. (1. /. Float.max 1. m)

let loss_event_rate t =
  update_mean t;
  p_of_mean t.f.avg

let loss_event_rate_into t (eq : Tcp_model.Padhye.cell) =
  update_mean t;
  eq.p <- p_of_mean t.f.avg

let has_loss t = t.events > 0

let loss_events t = t.events

let packets_seen t = t.seen

let closed_intervals t = t.intervals

(* The first [k] elements of [l]: [l] itself, not a copy, when it has
   no more, so only a full history pays for dropping its oldest. *)
let rec truncate k l =
  match l with
  | [] -> l
  | x :: rest ->
      if k = 0 then []
      else
        let rest' = truncate (k - 1) rest in
        if rest' == rest then l else x :: rest'

let push_interval t v =
  t.intervals <- truncate t.n (v :: t.intervals);
  if t.synthetic_pos >= 0 then begin
    t.synthetic_pos <- t.synthetic_pos + 1;
    if t.synthetic_pos >= t.n then t.synthetic_pos <- -1
  end

let new_loss_event t ~first_lost_seq ~now =
  (if t.events = 0 then begin
     (* First ever loss event: seed the history with a synthetic interval
        (App. B), falling back to the packet count so far. *)
     let interval =
       match t.first_interval () with
       | Some v when v >= 1. -> v
       | Some _ | None -> Float.max 1. (float_of_int t.seen)
     in
     push_interval t interval;
     t.synthetic_pos <- 0
   end
   else begin
     let len = first_lost_seq - t.event_start_seq in
     push_interval t (Float.max 1. (float_of_int len))
   end);
  t.events <- t.events + 1;
  t.event_start_seq <- first_lost_seq;
  t.event_start_time <- now

(* Logs a gap opening now at [seq] in the ring, over its oldest entry
   once it holds [max_gap_log]. *)
let push_gap t seq =
  if Array.length t.gap_seqs = 0 then begin
    t.gap_seqs <- Array.make max_gap_log 0;
    t.gap_times <- Array.make max_gap_log 0.
  end;
  let i = t.gap_next in
  t.gap_seqs.(i) <- seq;
  t.gap_times.(i) <- t.clock.Event_heap.cell_time;
  t.gap_next <- (if i + 1 = max_gap_log then 0 else i + 1);
  if t.gap_count < max_gap_log then t.gap_count <- t.gap_count + 1

let gap_log t =
  let acc = ref [] in
  (* Oldest to newest, each consed in front: newest first. *)
  for j = 0 to t.gap_count - 1 do
    let i = (t.gap_next - t.gap_count + j + max_gap_log) mod max_gap_log in
    acc := (t.gap_seqs.(i), t.gap_times.(i)) :: !acc
  done;
  !acc

let on_packet t ~seq =
  if seq < 0 then invalid_arg "Loss_history.on_packet: negative seq";
  if not t.synced then begin
    (* First arrival defines the baseline: a receiver joining an ongoing
       session must not treat the sequence prefix as loss. *)
    t.synced <- true;
    t.seen <- 1;
    t.expected <- seq + 1
  end
  else if seq >= t.expected then begin
    let n_lost = seq - t.expected in
    if n_lost > 0 then begin
      let now = t.clock.Event_heap.cell_time and rtt = t.rtt () in
      (* [rtt > 0.] is false for NaN, which would otherwise aggregate
         every later loss into one event. *)
      if not (rtt > 0. && rtt < infinity) then
        invalid_arg "Loss_history.on_packet: rtt must be finite and positive";
      let first_lost = t.expected in
      push_gap t first_lost;
      (* Aggregate: losses within one RTT of the current event's start
         belong to it and open no new interval. *)
      if t.events = 0 || now -. t.event_start_time > rtt then
        new_loss_event t ~first_lost_seq:first_lost ~now
    end;
    t.seen <- t.seen + 1;
    t.expected <- seq + 1
  end
(* seq < expected: duplicate or late packet; ignore. *)

let remodel t ~rtt =
  if not (rtt > 0. && rtt < infinity) then
    invalid_arg "Loss_history.remodel: rtt must be finite and positive";
  match List.rev (gap_log t) with
  | [] -> ()
  | (seq0, time0) :: rest ->
      (* Re-aggregate the retained gaps under the new RTT. *)
      let events =
        List.fold_left
          (fun acc (seq, time) ->
            match acc with
            | (_, last_time) :: _ when time -. last_time <= rtt -> acc
            | _ -> (seq, time) :: acc)
          [ (seq0, time0) ]
          rest
      in
      (* events: newest first.  Intervals between consecutive events. *)
      let rec intervals_of = function
        | (s1, _) :: ((s2, _) :: _ as tail) ->
            Float.max 1. (float_of_int (s1 - s2)) :: intervals_of tail
        | [ _ ] | [] -> []
      in
      let rebuilt = intervals_of events in
      (* Keep whatever older history lies beyond the gap log: the
         previous intervals not covered by the rebuilt ones.  Old
         interval i (newest first) spans [boundary - v, boundary) in
         sequence space, with boundary starting at the current event's
         first lost seq; it is covered by the rebuilt history iff it
         lies entirely within the retained gap log (whose oldest gap is
         [seq0]).  The synthetic first interval (App. B) corresponds to
         no real gap and is never covered, nor is anything older. *)
      let n_covered =
        let boundary = ref t.event_start_seq in
        let covered = ref 0 in
        (try
           List.iteri
             (fun i v ->
               if i = t.synthetic_pos then raise Exit;
               let lo = !boundary - int_of_float v in
               if lo >= seq0 then begin
                 incr covered;
                 boundary := lo
               end
               else raise Exit)
             t.intervals
         with Exit -> ());
        !covered
      in
      let older = List.filteri (fun i _ -> i >= n_covered) t.intervals in
      t.intervals <-
        List.filteri (fun i _ -> i < t.n) (rebuilt @ older);
      (* The synthetic interval survives the splice when present: shift
         its position by the replacement. *)
      (if t.synthetic_pos >= 0 then begin
         let pos = List.length rebuilt + (t.synthetic_pos - n_covered) in
         t.synthetic_pos <- (if pos < t.n then pos else -1)
       end);
      (match events with
      | (s, tm) :: _ ->
          t.event_start_seq <- s;
          t.event_start_time <- tm;
          t.events <- Stdlib.max t.events (List.length events)
      | [] -> ())

let rescale_synthetic t ~factor =
  if factor <= 0. then invalid_arg "Loss_history.rescale_synthetic: factor must be positive";
  if t.synthetic_pos >= 0 then begin
    t.intervals <-
      List.mapi
        (fun i v -> if i = t.synthetic_pos then Float.max 1. (v *. factor) else v)
        t.intervals;
    t.synthetic_pos <- -1
  end

let weights t = Array.copy t.weights
