type entry = {
  pe_rx : int;
  pe_ts : float;
  pe_arrival : float;
  pe_class : int;
  pe_rate : float;
}

let compare a b =
  match Int.compare a.pe_class b.pe_class with
  | 0 -> Float.compare a.pe_rate b.pe_rate
  | c -> c

let insert l e =
  let rx = e.pe_rx in
  (* [e] is in place: drop the old entry behind it, if any, sharing the
     cells after it (and the whole list when there is none). *)
  let rec drop l =
    match l with
    | [] -> l
    | x :: rest ->
        if x.pe_rx = rx then rest
        else
          let rest' = drop rest in
          if rest' == rest then l else x :: rest'
  in
  (* The old entry is gone: only [e]'s place is left to find. *)
  let rec place l =
    match l with
    | x :: rest when compare x e < 0 -> x :: place rest
    | _ -> e :: l
  in
  let rec go l =
    match l with
    | [] -> [ e ]
    | x :: rest when x.pe_rx = rx -> place rest
    | x :: rest when compare x e < 0 -> x :: go rest
    | _ -> e :: drop l
  in
  go l
