type payload = ..

type payload += Raw of int

type dst = Unicast of int | Multicast of int

type t = {
  mutable uid : int;
  mutable flow : int;
  mutable size : int;
  mutable src : int;
  mutable dst : dst;
  mutable payload : payload;
  mutable created : float;
  mutable hops : int;
  (* Arena plumbing.  [pooled] is fixed at allocation: arena records are
     recycled through {!release}/{!alloc}, heap records (from {!make} and
     the exhaustion fallback) are left to the GC and [release] on them is
     a no-op — so code outside the simulator may hold a {!make}d packet
     as long as it likes.  [live] is the use-after-free guard: false
     between release and the next acquire. *)
  pooled : bool;
  mutable live : bool;
}

exception Use_after_free of string

(* Atomic so packet allocation is race-free when independent engines run
   in parallel sweep domains.  Uids are process-global identifiers for
   traces and pretty-printing only — no protocol logic reads them — so
   cross-domain interleaving of the sequence is harmless. *)
let next_uid = Atomic.make 0

let fresh_uid () = Atomic.fetch_and_add next_uid 1 + 1

let ttl_limit = 64

let dummy_payload = Raw (-1)

(* ------------------------------------------------------------- arena *)

module Pool = struct
  type pool = {
    slots : t array;  (* free records, [0, top) *)
    owned : t array;  (* every record of this arena, for [reclaim] *)
    mutable top : int;
    mutable debug : bool;
    mutable acquired : int;
    mutable recycled : int;
    mutable exhausted : int;  (* heap fallbacks after the arena ran dry *)
  }

  let default_capacity = 4096

  let blank () =
    {
      uid = 0;
      flow = 0;
      size = 0;
      src = 0;
      dst = Unicast (-1);
      payload = dummy_payload;
      created = 0.;
      hops = 0;
      pooled = true;
      live = false;
    }

  let create ?(capacity = default_capacity) () =
    if capacity < 1 then invalid_arg "Packet.Pool.create: capacity must be >= 1";
    let owned = Array.init capacity (fun _ -> blank ()) in
    {
      slots = Array.copy owned;
      owned;
      top = capacity;
      debug = false;
      acquired = 0;
      recycled = 0;
      exhausted = 0;
    }

  (* One arena per domain: engines never share packets across domains
     (the sweep ownership rule), and successive engines in one domain
     reuse the same records.  Never read from another domain. *)
  let key : pool Domain.DLS.key = Domain.DLS.new_key (fun () -> create ())

  let domain () = Domain.DLS.get key

  (* Records still held by a dropped engine (packets in flight when its
     run ended) never come back through [release]; this takes them back.
     Allocation-free, and the arena's free list after it is always the
     same, whatever ran on this domain before. *)
  let reclaim pl =
    for i = 0 to Array.length pl.owned - 1 do
      let p = Array.unsafe_get pl.owned i in
      p.live <- false;
      p.payload <- dummy_payload;
      Array.unsafe_set pl.slots i p
    done;
    pl.top <- Array.length pl.owned

  let set_debug pl on = pl.debug <- on

  let debug pl = pl.debug

  let capacity pl = Array.length pl.slots

  let free pl = pl.top

  let in_use pl = capacity pl - pl.top

  let acquired pl = pl.acquired

  let recycled pl = pl.recycled

  let exhausted pl = pl.exhausted
end

(* Sentinel for empty data-structure slots (queue rings).  Flagged as a
   released arena record so any accidental send trips the {!guard}. *)
let dummy = Pool.blank ()

(* ------------------------------------------------------- constructors *)

let init p ~flow ~size ~src ~dst ~created payload =
  p.uid <- fresh_uid ();
  p.flow <- flow;
  p.size <- size;
  p.src <- src;
  p.dst <- dst;
  p.payload <- payload;
  p.created <- created;
  p.hops <- 0;
  p.live <- true;
  p

let make ~flow ~size ~src ~dst ~created payload =
  if size <= 0 then invalid_arg "Packet.make: size must be positive";
  {
    uid = fresh_uid ();
    flow;
    size;
    src;
    dst;
    payload;
    created;
    hops = 0;
    pooled = false;
    live = true;
  }

let alloc ~flow ~size ~src ~dst ~created payload =
  if size <= 0 then invalid_arg "Packet.alloc: size must be positive";
  let pl = Pool.domain () in
  if pl.Pool.top > 0 then begin
    pl.Pool.top <- pl.Pool.top - 1;
    pl.Pool.acquired <- pl.Pool.acquired + 1;
    init (Array.unsafe_get pl.Pool.slots pl.Pool.top) ~flow ~size ~src ~dst
      ~created payload
  end
  else begin
    pl.Pool.exhausted <- pl.Pool.exhausted + 1;
    make ~flow ~size ~src ~dst ~created payload
  end

let release p =
  if p.pooled then begin
    if not p.live then begin
      if (Pool.domain ()).Pool.debug then
        raise (Use_after_free (Printf.sprintf "double release of packet #%d" p.uid))
    end
    else begin
      let pl = Pool.domain () in
      p.live <- false;
      (* Drop sentinel references so a recycled slot never pins a payload
         (or its protocol record) across reuse. *)
      p.payload <- dummy_payload;
      if pl.Pool.debug then begin
        (* Poison: a stale holder reading a released record sees values no
           real packet carries. *)
        p.hops <- min_int;
        p.size <- min_int;
        p.flow <- min_int
      end;
      (* [top = capacity] can only be exceeded by records released into a
         different domain's arena; drop those to the GC instead. *)
      if pl.Pool.top < Array.length pl.Pool.slots then begin
        Array.unsafe_set pl.Pool.slots pl.Pool.top p;
        pl.Pool.top <- pl.Pool.top + 1;
        pl.Pool.recycled <- pl.Pool.recycled + 1
      end
    end
  end

let is_live p = p.live

let set_hops p n = p.hops <- n

(* Same uid on purpose: a corrupted packet is the same physical packet
   with mangled contents, and traces identify it by uid.  The copy is a
   heap record regardless of the source's poolness — fault injectors may
   hold it across the Replace dispatch, after the original is released. *)
let with_payload p payload = { p with payload; pooled = false; live = true }

(* Use-after-free tripwire on the simulator entry points (send/inject):
   two flag tests, so it is cheap enough to leave always on.  The richer
   diagnostics (poisoned fields) need the pool's debug mode. *)
let guard ctx p =
  if p.pooled && not p.live then
    raise (Use_after_free (Printf.sprintf "%s: packet #%d was released" ctx p.uid))

let copy_into q p =
  q.flow <- p.flow;
  q.size <- p.size;
  q.src <- p.src;
  q.dst <- p.dst;
  q.payload <- p.payload;
  q.created <- p.created;
  q.hops <- p.hops;
  q

let clone p =
  if p.pooled then begin
    let pl = Pool.domain () in
    if pl.Pool.top > 0 then begin
      pl.Pool.top <- pl.Pool.top - 1;
      pl.Pool.acquired <- pl.Pool.acquired + 1;
      let q = Array.unsafe_get pl.Pool.slots pl.Pool.top in
      q.uid <- fresh_uid ();
      q.live <- true;
      copy_into q p
    end
    else begin
      pl.Pool.exhausted <- pl.Pool.exhausted + 1;
      { p with uid = fresh_uid (); pooled = false; live = true }
    end
  end
  else { p with uid = fresh_uid () }

let pp ppf p =
  let dst =
    match p.dst with
    | Unicast n -> Printf.sprintf "n%d" n
    | Multicast g -> Printf.sprintf "g%d" g
  in
  Format.fprintf ppf "#%d flow=%d %dB n%d->%s hops=%d" p.uid p.flow p.size
    p.src dst p.hops
