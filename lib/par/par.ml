(* Worker domains carry a DLS marker recording which task index they are
   running, so nested submission (a parallel task calling back into
   [map]) can be rejected with a message naming the offending task.
   [None] outside workers. *)
let running_task : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

type cancel_reason = Timeout of float | Stall of string

exception Cancelled of cancel_reason

(* ------------------------------------------------------------- control *)

module Control = struct
  type t = {
    started : float;  (* Unix time the control was created *)
    timeout : float option;  (* seconds of wall clock from [started] *)
    mutable reason : cancel_reason option;  (* sticky once set *)
  }

  let create ?timeout () =
    { started = Unix.gettimeofday (); timeout; reason = None }

  let cancelled t = t.reason

  let check t =
    (match t.reason with Some r -> raise (Cancelled r) | None -> ());
    match t.timeout with
    | Some s when Unix.gettimeofday () -. t.started > s ->
        let r = Timeout s in
        t.reason <- Some r;
        raise (Cancelled r)
    | _ -> ()
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
   slot.  Shared by the serial and parallel paths so both have identical
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

(* OCaml 5 allows 128 domains in all ([Max_domains] in caml/domain.h),
   and the calling domain is one of them. *)
let max_workers = 127

let map_outcomes ~jobs ?timeout tasks =
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  let outcomes = Array.make n (Stalled { reason = "task never ran" }) in
  if n = 0 then []
  else if jobs <= 1 then begin
    (* Serial path: run in the calling domain, identical bookkeeping.
       [running_task] is deliberately not set — a serial map inside a
       parallel task is the documented escape hatch for nested fan-out. *)
    for i = 0 to n - 1 do
      collect ?timeout outcomes tasks i
    done;
    Array.to_list outcomes
  end
  else begin
    (match Domain.DLS.get running_task with
    | Some i ->
        invalid_arg
          (Printf.sprintf
             "Par.map_outcomes: nested submission from inside parallel task \
              #%d — nested maps multiply the domain count; use Par.map \
              ~jobs:1 inside tasks instead"
             i)
    | None -> ());
    let workers = min jobs n in
    if workers > max_workers then
      invalid_arg
        (Printf.sprintf
           "Par.map_outcomes: %d worker domains; the runtime allows %d besides \
            the caller"
           workers max_workers);
    (* Workers claim indices from one counter, so tasks start in
       submission order. *)
    let next = Atomic.make 0 in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        Domain.DLS.set running_task (Some i);
        collect ?timeout outcomes tasks i;
        work ()
      end
    in
    let domains = Array.init workers (fun _ -> Domain.spawn work) in
    (* [Domain.join] orders every worker's writes to [outcomes] before
       the read below. *)
    Array.iter Domain.join domains;
    Array.to_list outcomes
  end

let map ~jobs tasks =
  unwrap_all (map_outcomes ~jobs (List.map (fun task _control -> task ()) tasks))
