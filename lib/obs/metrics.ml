type labels = (string * string) list

module Counter = struct
  type t = { mutable v : int }

  let make () = { v = 0 }

  let inc c = c.v <- c.v + 1

  let add c n = c.v <- c.v + n

  let value c = c.v
end

module Gauge = struct
  type t = { mutable v : float }

  let make () = { v = 0. }

  let set g v = g.v <- v
end

module Histogram = struct
  (* The float state lives in its own all-float record: all-float
     records store raw doubles, so [observe] — called on per-packet hot
     paths — updates in place instead of boxing a float per field. *)
  type floats = { mutable sum : float; mutable min : float; mutable max : float }

  type t = { mutable count : int; fs : floats }

  let make () =
    { count = 0; fs = { sum = 0.; min = infinity; max = neg_infinity } }

  (* The sample is read from the caller's array: a float argument would
     be boxed at the call (the dev profile compiles [-opaque]). *)
  let observe h a i =
    let x = a.(i) in
    h.count <- h.count + 1;
    let fs = h.fs in
    fs.sum <- fs.sum +. x;
    if x < fs.min then fs.min <- x;
    if x > fs.max then fs.max <- x
end

type instrument =
  | C of Counter.t
  | G of Gauge.t
  | H of Histogram.t

type t = {
  on : bool;
  tbl : (string * labels, instrument) Hashtbl.t;
}

let create () = { on = true; tbl = Hashtbl.create 64 }

let null = { on = false; tbl = Hashtbl.create 1 }

let normalize labels = List.sort (fun (a, _) (b, _) -> compare a b) labels

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let lookup t ~labels name ~make ~extract =
  let key = (name, normalize labels) in
  match Hashtbl.find_opt t.tbl key with
  | Some inst -> (
      match extract inst with
      | Some x -> x
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %s already registered as a %s" name
               (kind_name inst)))
  | None ->
      let inst = make () in
      if t.on then Hashtbl.add t.tbl key inst;
      (match extract inst with Some x -> x | None -> assert false)

let counter t ?(labels = []) name =
  lookup t ~labels name
    ~make:(fun () -> C (Counter.make ()))
    ~extract:(function C c -> Some c | _ -> None)

let gauge t ?(labels = []) name =
  lookup t ~labels name
    ~make:(fun () -> G (Gauge.make ()))
    ~extract:(function G g -> Some g | _ -> None)

let histogram t ?(labels = []) name =
  lookup t ~labels name
    ~make:(fun () -> H (Histogram.make ()))
    ~extract:(function H h -> Some h | _ -> None)

type sample = {
  name : string;
  labels : labels;
  value : value;
}

and value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { count : int; sum : float; min : float; max : float }

let snapshot t =
  Hashtbl.fold
    (fun (name, labels) inst acc ->
      let value =
        match inst with
        | C c -> Counter_v (Counter.value c)
        | G g -> Gauge_v g.v
        | H h ->
            Histogram_v
              { count = h.count; sum = h.fs.sum; min = h.fs.min; max = h.fs.max }
      in
      { name; labels; value } :: acc)
    t.tbl []
  |> List.sort (fun a b ->
         match compare a.name b.name with
         | 0 -> compare a.labels b.labels
         | c -> c)

let counter_value t name =
  match Hashtbl.find_opt t.tbl (name, []) with
  | Some (C c) -> Counter.value c
  | _ -> 0

let sum_counters t name =
  Hashtbl.fold
    (fun (n, _) inst acc ->
      match inst with C c when n = name -> acc + Counter.value c | _ -> acc)
    t.tbl 0

let labelled_values t name =
  Hashtbl.fold
    (fun (n, labels) inst acc ->
      match inst with
      | C c when n = name -> (labels, Counter.value c) :: acc
      | _ -> acc)
    t.tbl []
  |> List.sort compare

let labels_to_string labels =
  match labels with
  | [] -> ""
  | _ ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels)
      ^ "}"

let describe ?(prefix = "") t =
  let entries =
    snapshot t
    |> List.filter_map (fun s ->
           if not (String.starts_with ~prefix s.name) then None
           else
             match s.value with
             | Counter_v v ->
                 Some
                   (Printf.sprintf "%s%s=%d" s.name (labels_to_string s.labels) v)
             | Gauge_v _ | Histogram_v _ -> None)
  in
  match entries with
  | [] -> "(no metrics)"
  | _ -> String.concat ", " entries

let to_json t =
  Json.Arr
    (List.map
       (fun s ->
         let labels = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) s.labels) in
         let value_fields =
           match s.value with
           | Counter_v v -> [ ("kind", Json.Str "counter"); ("value", Json.Int v) ]
           | Gauge_v v -> [ ("kind", Json.Str "gauge"); ("value", Json.Float v) ]
           | Histogram_v { count; sum; min; max } ->
               [
                 ("kind", Json.Str "histogram");
                 ("count", Json.Int count);
                 ("sum", Json.Float sum);
                 ("min", Json.Float min);
                 ("max", Json.Float max);
               ]
         in
         Json.Obj (("name", Json.Str s.name) :: ("labels", labels) :: value_fields))
       (snapshot t))
