(* Binary min-heap of timers on (deadline, seq) (see timer_heap.mli).

   The heap proper is three parallel unboxed arrays, so sifting moves
   only floats and ints: no pointer chasing to compare two entries and
   no write barrier per level.  Each heap position names a slot in
   [timers], which holds the callback; a slot is written once when its
   timer is scheduled and cleared once when it leaves the heap, so a
   fired timer's closure (which may hold a whole in-flight frame) is
   not kept alive by the array.

   Cancellation tombstones the timer in place; its slot is reclaimed
   when it surfaces at the root, in [advance] or [next_due]. *)

type timer = { fn : unit -> unit; mutable live : bool }

type t = {
  mutable at : float array; (* heap order: deadline *)
  mutable seq : int array; (* heap order: insertion seq, the tie-break *)
  mutable slot : int array; (* heap order: index into [timers] *)
  mutable n : int;
  mutable timers : timer array; (* by slot *)
  mutable free : int array; (* stack of free slots below [n + nfree] *)
  mutable nfree : int;
  mutable next_seq : int;
  mutable fired : int;
}

let dead = { fn = ignore; live = false }

let create () =
  let cap = 64 in
  {
    at = Array.make cap 0.;
    seq = Array.make cap 0;
    slot = Array.make cap 0;
    n = 0;
    timers = Array.make cap dead;
    free = Array.make cap 0;
    nfree = 0;
    next_seq = 0;
    fired = 0;
  }

let grow t =
  let cap = 2 * Array.length t.at in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.at <- extend t.at 0.;
  t.seq <- extend t.seq 0;
  t.slot <- extend t.slot 0;
  t.timers <- extend t.timers dead;
  t.free <- extend t.free 0

let move t ~src ~dst =
  t.at.(dst) <- t.at.(src);
  t.seq.(dst) <- t.seq.(src);
  t.slot.(dst) <- t.slot.(src)

let schedule t ~at fn =
  if Float.is_nan at then invalid_arg "Timer_heap.schedule: NaN deadline";
  if t.n = Array.length t.at then grow t;
  (* Every heap position owns one slot, so with no free slot the slots
     in use are exactly 0 .. n-1. *)
  let s =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else t.n
  in
  let e = { fn; live = true } in
  t.timers.(s) <- e;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* Sift up.  The new seq is the largest, so only a strictly later
     parent moves down. *)
  let i = ref t.n in
  t.n <- t.n + 1;
  while !i > 0 && at < t.at.((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    move t ~src:p ~dst:!i;
    i := p
  done;
  t.at.(!i) <- at;
  t.seq.(!i) <- seq;
  t.slot.(!i) <- s;
  e

let cancel e = e.live <- false

let root t = t.timers.(t.slot.(0))

(* Remove the root, free its slot, and sift the last entry down. *)
let pop t =
  let s0 = t.slot.(0) in
  t.timers.(s0) <- dead;
  t.free.(t.nfree) <- s0;
  t.nfree <- t.nfree + 1;
  let n = t.n - 1 in
  t.n <- n;
  if n > 0 then begin
    let at = t.at.(n) and seq = t.seq.(n) and s = t.slot.(n) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && (t.at.(r) < t.at.(l) || (t.at.(r) = t.at.(l) && t.seq.(r) < t.seq.(l)))
          then r
          else l
        in
        if t.at.(c) < at || (t.at.(c) = at && t.seq.(c) < seq) then begin
          move t ~src:c ~dst:!i;
          i := c
        end
        else sifting := false
      end
    done;
    t.at.(!i) <- at;
    t.seq.(!i) <- seq;
    t.slot.(!i) <- s
  end

let rec next_due t =
  if t.n = 0 then None
  else if (root t).live then Some t.at.(0)
  else begin
    pop t;
    next_due t
  end

(* Zero-delay chains are finite in TFMCC (its timers are paced); the cap
   turns a runaway chain into a crash instead of a hang.  Only timers
   scheduled during this advance count, so a large due backlog cannot
   trip it. *)
let max_spawned = 1_000_000

let advance t ~now ?late ~fire () =
  let fired0 = t.fired and seq0 = t.next_seq in
  let spawned = ref 0 in
  while t.n > 0 && (t.at.(0) <= now || not (root t).live) do
    let e = root t and at = t.at.(0) and seq = t.seq.(0) in
    pop t;
    if e.live then begin
      e.live <- false;
      t.fired <- t.fired + 1;
      if seq >= seq0 then begin
        incr spawned;
        if !spawned > max_spawned then
          failwith "Timer_heap.advance: runaway zero-delay timer chain"
      end;
      (match late with Some f -> f at | None -> ());
      fire e.fn
    end
  done;
  t.fired - fired0

let pending t =
  let n = ref 0 in
  for i = 0 to t.n - 1 do
    if t.timers.(t.slot.(i)).live then incr n
  done;
  !n

let fired t = t.fired
