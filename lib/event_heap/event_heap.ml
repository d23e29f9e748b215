(* Binary min-heap of tie runs on (time, seq) (see event_heap.mli).

   The heap proper is three parallel unboxed arrays — [times], [seqs]
   and [slots] — so a sift moves only floats and ints: no pointer
   chasing to compare two entries and no write barrier per level.  Each
   heap node is a *tie run*: a chain of entries inserted one after
   another with the same due time.  The node holds the run's time and
   the seq and slot of its first member (the head); the other members
   are reached through [next], a link by slot, and have no heap
   position.  Their seqs are consecutive, so no other entry can sort
   between two of them: when the head fires, the node takes the next
   member's slot and [seq + 1] in place, with no sift.  An insert joins
   the previous insert's run only when that entry is still pending (its
   slot's owner is [seq - 1], so it is the run's last member) and both
   are due at the same bits.  A hub that sends one packet on hundreds of
   equal-rate links schedules hundreds of transmission ends at one
   instant; as a run they cost one node instead of one sift each.

   Each slot holds one entry's payload, either a closure ([fns]) or a
   message: a function applied to its two arguments ([msgs]/[args]/
   [ints]).  The message form lets the simulator's links and the rt
   fabric schedule a delivery with one preallocated function instead of
   a fresh closure per in-flight datagram; [args] doubles as the
   discriminator ([dummy] means closure form).  A slot's payload is
   written once when its entry is scheduled and cleared once when the
   entry leaves the heap, so a fired entry's closure or message is not
   kept alive by the tables.  [owner] holds the seq of the entry
   occupying each slot, or -1 once that entry fired or was cancelled:
   an entry is live exactly when its seq matches its slot's owner.  A
   cancel handle carries (slot, seq), so a handle whose entry has fired
   can never cancel the slot's next occupant.

   Slots are not heap positions: a run of k members holds k slots and
   one node.  Slots 0 .. [used]-1 have been handed out, freed ones wait
   on the [free] stack, and every array grows together when the slots
   run out (a node needs at least one slot, so the heap arrays never
   fill first).  Cancellation is lazy: the entry keeps its slot, in the
   heap or in its run, until it surfaces at the root, where [purge]
   drops it.

   No entry record is allocated per schedule — only [add] allocates its
   small handle — which is why this is not the freelist of recycled
   records DESIGN.md §14 rejects: no record is refilled, and a sift
   stores no pointer. *)

type handle = { h_slot : int; h_seq : int }

(* All-float cell (raw double storage): [step] writes the popped time
   here so the caller's clock update is a plain store, and [insert]
   reads a deadline's base from one. *)
type time_cell = { mutable cell_time : float }

type 'a t = {
  mutable times : float array; (* heap order: the run's time *)
  mutable seqs : int array; (* heap order: the head's seq, the tie-break *)
  mutable slots : int array; (* heap order: the head's slot *)
  mutable len : int; (* heap nodes *)
  mutable live : int;
  mutable next_seq : int;
  mutable owner : int array; (* by slot: seq of the live occupant, or -1 *)
  mutable next : int array; (* by slot: the run's next member, or -1 *)
  mutable fns : (unit -> unit) array; (* by slot: closure payload *)
  mutable msgs : ('a -> int -> unit) array; (* by slot: message function *)
  mutable args : 'a array; (* by slot: its first argument, or [dummy] *)
  mutable ints : int array; (* by slot: its second argument *)
  mutable free : int array; (* stack of free slots *)
  mutable nfree : int;
  mutable used : int; (* slots handed out: 0 .. used-1 *)
  mutable tail : int; (* slot of the last insert, or -1 before the first *)
  tail_time : time_cell; (* its due time *)
  dummy : 'a;
}

let ignore_msg _ (_ : int) = ()

let time_zero = { cell_time = 0. }

let initial_capacity = 64

let create ~dummy =
  let cap = initial_capacity in
  {
    times = Array.make cap 0.;
    seqs = Array.make cap 0;
    slots = Array.make cap 0;
    len = 0;
    live = 0;
    next_seq = 0;
    owner = Array.make cap (-1);
    next = Array.make cap (-1);
    fns = Array.make cap ignore;
    msgs = Array.make cap ignore_msg;
    args = Array.make cap dummy;
    ints = Array.make cap 0;
    free = Array.make cap 0;
    nfree = 0;
    used = 0;
    tail = -1;
    tail_time = { cell_time = 0. };
    dummy;
  }

let grow t =
  let cap = 2 * Array.length t.owner in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.times <- extend t.times 0.;
  t.seqs <- extend t.seqs 0;
  t.slots <- extend t.slots 0;
  t.owner <- extend t.owner (-1);
  t.next <- extend t.next (-1);
  t.fns <- extend t.fns ignore;
  t.msgs <- extend t.msgs ignore_msg;
  t.args <- extend t.args t.dummy;
  t.ints <- extend t.ints 0;
  t.free <- extend t.free 0

(* The sift loops keep every float comparison inside one function body:
   without flambda a float passed to a helper is boxed at each call, so
   the comparisons are hand-inlined and the keys stay in FP registers.
   Indices are bounded by [t.len] or [t.used] (a local invariant of each
   loop), so array accesses use the unsafe primitives. *)

(* Claim a slot for a new entry due at [base + offset]: append it to the
   previous insert's run, or give it a node of its own and sift it up.
   The key is summed here, so it stays an unboxed local: a deadline
   summed by the caller would be boxed to cross into this module (the
   dev profile compiles with [-opaque]).  The new seq is the largest, so
   only a strictly later parent moves down.  Returns the slot; the
   caller writes the payload. *)
let insert t base offset =
  let time = base.cell_time +. offset in
  if Float.is_nan time then invalid_arg "Event_heap: NaN deadline";
  let seq = t.next_seq in
  let tail = t.tail in
  let last = t.tail_time.cell_time in
  (* Same bits: equal and, at zero, the same sign ([1/0.] is [inf],
     [1/-0.] is [-inf]), so a [-0.] deadline never joins a [0.] run and
     its pop writes [-0.] to the clock. *)
  let joins =
    tail >= 0
    && Array.unsafe_get t.owner tail = seq - 1
    && time = last
    && (time <> 0. || 1. /. time = 1. /. last)
  in
  let s =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      Array.unsafe_get t.free t.nfree
    end
    else begin
      if t.used = Array.length t.owner then grow t;
      let s = t.used in
      t.used <- s + 1;
      s
    end
  in
  t.next_seq <- seq + 1;
  Array.unsafe_set t.owner s seq;
  t.live <- t.live + 1;
  t.tail <- s;
  t.tail_time.cell_time <- time;
  if joins then Array.unsafe_set t.next tail s
  else begin
    let times = t.times and seqs = t.seqs and slots = t.slots in
    let i = ref t.len in
    t.len <- t.len + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      let tp = Array.unsafe_get times parent in
      if time < tp then begin
        Array.unsafe_set times !i tp;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
        Array.unsafe_set slots !i (Array.unsafe_get slots parent);
        i := parent
      end
      else continue := false
    done;
    Array.unsafe_set times !i time;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set slots !i s
  end;
  s

let add t ~base ~offset callback =
  let s = insert t base offset in
  Array.unsafe_set t.fns s callback;
  { h_slot = s; h_seq = Array.unsafe_get t.owner s }

let add_unit t ~base ~offset callback =
  let s = insert t base offset in
  Array.unsafe_set t.fns s callback

let add_msg t ~base ~offset f x n =
  let s = insert t base offset in
  Array.unsafe_set t.msgs s f;
  Array.unsafe_set t.args s x;
  Array.unsafe_set t.ints s n

let cancel t h =
  if t.owner.(h.h_slot) = h.h_seq then begin
    t.owner.(h.h_slot) <- -1;
    t.live <- t.live - 1
  end

(* Remove the root node and refill the hole with the last node.  The
   hole first moves down to a leaf along the lesser child, then the old
   last node sifts up from there: it came from the bottom, so it rarely
   climbs far, and the descent picks each child from [Bool.to_int] of
   the comparisons, which compiles to a flag store, not a branch.  The
   moved node's key is loaded here rather than passed in, so it is
   never boxed. *)
let remove_node t =
  let len = t.len - 1 in
  t.len <- len;
  if len > 0 then begin
    let times = t.times and seqs = t.seqs and slots = t.slots in
    let time = Array.unsafe_get times len in
    let seq = Array.unsafe_get seqs len in
    let s = Array.unsafe_get slots len in
    let i = ref 0 in
    let l = ref 1 in
    while !l + 1 < len do
      let l0 = !l in
      let r = l0 + 1 in
      let tl = Array.unsafe_get times l0 and tr = Array.unsafe_get times r in
      let c =
        l0
        + (Bool.to_int (tr < tl)
          lor (Bool.to_int (tr = tl)
              land Bool.to_int (Array.unsafe_get seqs r < Array.unsafe_get seqs l0)))
      in
      Array.unsafe_set times !i (Array.unsafe_get times c);
      Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
      Array.unsafe_set slots !i (Array.unsafe_get slots c);
      i := c;
      l := (2 * c) + 1
    done;
    if !l < len then begin
      let c = !l in
      Array.unsafe_set times !i (Array.unsafe_get times c);
      Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
      Array.unsafe_set slots !i (Array.unsafe_get slots c);
      i := c
    end;
    let continue = ref true in
    while !continue && !i > 0 do
      let parent = (!i - 1) / 2 in
      let tp = Array.unsafe_get times parent in
      if time < tp || (time = tp && seq < Array.unsafe_get seqs parent) then begin
        Array.unsafe_set times !i tp;
        Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
        Array.unsafe_set slots !i (Array.unsafe_get slots parent);
        i := parent
      end
      else continue := false
    done;
    Array.unsafe_set times !i time;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set slots !i s
  end

(* Remove the entry at the root: free its slot and clear its payload.
   If its run has a next member, the root node takes that member's slot
   and [seq + 1] in place, still the heap's minimum; otherwise the node
   goes. *)
let pop_root t =
  let s0 = Array.unsafe_get t.slots 0 in
  Array.unsafe_set t.owner s0 (-1);
  if Array.unsafe_get t.args s0 != t.dummy then begin
    Array.unsafe_set t.args s0 t.dummy;
    Array.unsafe_set t.msgs s0 ignore_msg
  end
  else Array.unsafe_set t.fns s0 ignore;
  Array.unsafe_set t.free t.nfree s0;
  t.nfree <- t.nfree + 1;
  let nx = Array.unsafe_get t.next s0 in
  if nx >= 0 then begin
    Array.unsafe_set t.next s0 (-1);
    Array.unsafe_set t.slots 0 nx;
    Array.unsafe_set t.seqs 0 (Array.unsafe_get t.seqs 0 + 1)
  end
  else remove_node t

let root_live t =
  Array.unsafe_get t.owner (Array.unsafe_get t.slots 0)
  = Array.unsafe_get t.seqs 0

(* Drop cancelled entries as they surface so the root is live (or the
   heap empty) on return. *)
let purge t =
  while t.len > 0 && not (root_live t) do
    pop_root t
  done

(* The one dispatch step: purge cancelled entries, pop the root if it
   is due at or before [limit], write its time into [into] (an
   all-float cell, so the store does not box), then run [pre] (the
   owner's per-entry accounting) and fire.  Returns [false] when
   nothing is due.  The payload is read before [pop_root] frees the
   slot, so a callback may schedule into it straight away. *)
let step t ~limit ~into ~pre =
  purge t;
  if t.len = 0 then false
  else begin
    let time = Array.unsafe_get t.times 0 in
    if time > limit then false
    else begin
      let s = Array.unsafe_get t.slots 0 in
      let x = Array.unsafe_get t.args s in
      let f = Array.unsafe_get t.msgs s in
      let n = Array.unsafe_get t.ints s in
      let fn = Array.unsafe_get t.fns s in
      pop_root t;
      t.live <- t.live - 1;
      into.cell_time <- time;
      pre ();
      if x != t.dummy then f x n else fn ();
      true
    end
  end

let peek_time t =
  purge t;
  if t.len = 0 then None else Some t.times.(0)

let size t = t.live

(* O(n) structural audit for the invariant checker: every stored key is
   a real float, the (time, seq) heap order holds on every parent/child
   edge, each run's members carry consecutive seqs (a member's slot is
   owned by its seq, or by -1 once cancelled) in in-range slots, every
   slot handed out is either free or held by exactly one entry, and the
   live count matches the entries whose seq still owns their slot. *)
let well_formed t =
  let cap = Array.length t.owner in
  if Array.length t.times <> cap || Array.length t.seqs <> cap
     || Array.length t.slots <> cap || Array.length t.next <> cap
     || Array.length t.fns <> cap || Array.length t.msgs <> cap
     || Array.length t.args <> cap || Array.length t.ints <> cap
     || Array.length t.free <> cap
     || t.used < 0 || t.used > cap
     || t.nfree < 0 || t.nfree > t.used
     || t.len < 0 || t.len > t.used - t.nfree
     || t.live < 0 || t.live > t.used - t.nfree
     || t.tail < -1 || t.tail >= t.used
  then false
  else begin
    let ok = ref true in
    let stored_live = ref 0 and entries = ref 0 in
    for i = 0 to t.len - 1 do
      if Float.is_nan t.times.(i) then ok := false;
      if i > 0 then begin
        let p = (i - 1) / 2 in
        let tp = t.times.(p) and ti = t.times.(i) in
        if tp > ti || (tp = ti && t.seqs.(p) > t.seqs.(i)) then ok := false
      end;
      let s = ref t.slots.(i) and seq = ref t.seqs.(i) in
      if !s < 0 then ok := false;
      (* [entries] bounds the walk, so a cycle ends it *)
      while !ok && !s >= 0 do
        if !s >= t.used || !entries >= t.used then ok := false
        else begin
          let o = t.owner.(!s) in
          if o = !seq then incr stored_live else if o <> -1 then ok := false;
          incr entries;
          s := t.next.(!s);
          incr seq
        end
      done
    done;
    for k = 0 to t.nfree - 1 do
      let f = t.free.(k) in
      if f < 0 || f >= t.used || t.owner.(f) <> -1 || t.next.(f) <> -1 then ok := false
    done;
    !ok && !stored_live = t.live && !entries = t.used - t.nfree
  end

let livelock_events = 1_000_000
