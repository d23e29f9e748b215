(* Worker domains carry a DLS marker recording which task index they are
   currently running, so nested submission (a pool task calling back into
   [map]) can be rejected with a message naming the offending task
   instead of deadlocking.  [None] between tasks and outside workers. *)
let running_task : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

type cancel_reason = Timeout of float | Stall of string

exception Cancelled of cancel_reason

(* ------------------------------------------------------------- control *)

module Control = struct
  type t = {
    live : bool;  (* the shared [none] control never cancels *)
    started : float;  (* Unix time the control was created *)
    timeout : float option;  (* seconds of wall clock from [started] *)
    mutable reason : cancel_reason option;  (* sticky once set *)
  }

  let none = { live = false; started = 0.; timeout = None; reason = None }

  let create ?timeout () =
    { live = true; started = Unix.gettimeofday (); timeout; reason = None }

  let cancel t reason = if t.live && t.reason = None then t.reason <- Some reason

  let cancelled t = t.reason

  let check t =
    if t.live then begin
      (match t.reason with Some r -> raise (Cancelled r) | None -> ());
      match t.timeout with
      | Some s when Unix.gettimeofday () -. t.started > s ->
          let r = Timeout s in
          t.reason <- Some r;
          raise (Cancelled r)
      | _ -> ()
    end
end

(* ------------------------------------------------------------ outcomes *)

type 'a outcome =
  | Ok of 'a
  | Failed of { exn : exn; backtrace : Printexc.raw_backtrace }
  | Timed_out of { after : float }
  | Stalled of { reason : string }

let outcome_label = function
  | Ok _ -> "ok"
  | Failed _ -> "failed"
  | Timed_out _ -> "timeout"
  | Stalled _ -> "stalled"

(* Run [tasks.(i)] with a fresh control, storing a structured outcome per
   slot.  Shared by the serial and pool paths so both have identical
   semantics.  Never raises: the task's exception (with backtrace) is
   captured in the slot. *)
let collect ?timeout outcomes tasks i =
  let control = Control.create ?timeout () in
  outcomes.(i) <-
    (match tasks.(i) control with
    | v -> Ok v
    | exception Cancelled (Timeout after) -> Timed_out { after }
    | exception Cancelled (Stall reason) -> Stalled { reason }
    | exception exn -> Failed { exn; backtrace = Printexc.get_raw_backtrace () })

(* [map] semantics on top of outcomes: every task ran; re-raise the
   lowest-indexed failure (with its backtrace) if any, else unwrap.
   [Timed_out]/[Stalled] cannot occur without a timeout or an external
   cancel, but are re-raised faithfully if a task leaks a [Cancelled]. *)
let unwrap_all outcomes =
  List.map
    (function
      | Ok v -> v
      | Failed { exn; backtrace } -> Printexc.raise_with_backtrace exn backtrace
      | Timed_out { after } -> raise (Cancelled (Timeout after))
      | Stalled { reason } -> raise (Cancelled (Stall reason)))
    outcomes

module Pool = struct
  type t = {
    jobs : int;
    m : Mutex.t;
    work_available : Condition.t;  (* workers: queue non-empty or stopping *)
    batch_done : Condition.t;  (* map callers: a task of theirs finished *)
    queue : (unit -> unit) Queue.t;
    mutable stopping : bool;
    mutable workers : unit Domain.t array;
  }

  let jobs t = t.jobs

  let worker pool () =
    let rec loop () =
      Mutex.lock pool.m;
      wait ()
    and wait () =
      match Queue.take_opt pool.queue with
      | Some task ->
          Mutex.unlock pool.m;
          (* [task] is a wrapper built by [map_outcomes]: it never raises
             and does its own completion bookkeeping under the pool
             mutex. *)
          task ();
          loop ()
      | None ->
          if pool.stopping then Mutex.unlock pool.m
          else begin
            Condition.wait pool.work_available pool.m;
            wait ()
          end
    in
    loop ()

  let create ~jobs () =
    if jobs < 1 || jobs > 256 then
      invalid_arg (Printf.sprintf "Par.Pool.create: jobs %d not in [1, 256]" jobs);
    let pool =
      {
        jobs;
        m = Mutex.create ();
        work_available = Condition.create ();
        batch_done = Condition.create ();
        queue = Queue.create ();
        stopping = false;
        workers = [||];
      }
    in
    pool.workers <- Array.init jobs (fun _ -> Domain.spawn (worker pool));
    pool

  let reject_nested who =
    match Domain.DLS.get running_task with
    | Some i ->
        invalid_arg
          (Printf.sprintf
             "%s: nested submission from inside pool task #%d — a worker \
              blocking on a sub-batch can deadlock the pool that feeds it; \
              use Par.map ~jobs:1 inside tasks instead"
             who i)
    | None -> ()

  let map_outcomes pool ?timeout tasks =
    reject_nested "Par.Pool.map_outcomes";
    let tasks = Array.of_list tasks in
    let n = Array.length tasks in
    if n = 0 then []
    else begin
      let outcomes =
        Array.make n (Stalled { reason = "task never ran" })
      in
      let remaining = ref n in
      let wrap i () =
        Domain.DLS.set running_task (Some i);
        collect ?timeout outcomes tasks i;
        Domain.DLS.set running_task None;
        Mutex.lock pool.m;
        decr remaining;
        if !remaining = 0 then Condition.broadcast pool.batch_done;
        Mutex.unlock pool.m
      in
      Mutex.lock pool.m;
      if pool.stopping then begin
        Mutex.unlock pool.m;
        invalid_arg "Par.Pool.map_outcomes: pool is shut down"
      end;
      for i = 0 to n - 1 do
        Queue.push (wrap i) pool.queue
      done;
      Condition.broadcast pool.work_available;
      while !remaining > 0 do
        Condition.wait pool.batch_done pool.m
      done;
      Mutex.unlock pool.m;
      (* All writes to [outcomes] happened-before the final [batch_done]
         signal we just synchronized with. *)
      Array.to_list outcomes
    end

  let map pool tasks =
    reject_nested "Par.Pool.map";
    let outcomes =
      map_outcomes pool (List.map (fun task _control -> task ()) tasks)
    in
    unwrap_all outcomes

  let shutdown pool =
    let joinable =
      Mutex.lock pool.m;
      let first = not pool.stopping in
      pool.stopping <- true;
      Condition.broadcast pool.work_available;
      Mutex.unlock pool.m;
      first
    in
    if joinable then Array.iter Domain.join pool.workers
end

let map_outcomes ~jobs ?timeout tasks =
  let n = List.length tasks in
  if n = 0 then []
  else if jobs <= 1 then begin
    (* Serial path: run in the calling domain, identical bookkeeping.
       [running_task] is deliberately not set — a serial map inside a
       pool task is the documented escape hatch for nested fan-out. *)
    let tasks = Array.of_list tasks in
    let outcomes = Array.make n (Stalled { reason = "task never ran" }) in
    for i = 0 to n - 1 do
      collect ?timeout outcomes tasks i
    done;
    Array.to_list outcomes
  end
  else begin
    let pool = Pool.create ~jobs:(min jobs n) () in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Pool.map_outcomes pool ?timeout tasks)
  end

let map ~jobs tasks =
  unwrap_all (map_outcomes ~jobs (List.map (fun task _control -> task ()) tasks))
