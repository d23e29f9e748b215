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

(* [e] is in place: drop the old entry of [rx] behind it, if any,
   sharing the cells after it (and the whole list when there is
   none). *)
let rec drop rx l =
  match l with
  | [] -> l
  | x :: rest ->
      if x.pe_rx = rx then rest
      else
        let rest' = drop rx rest in
        if rest' == rest then l else x :: rest'

(* The old entry is gone: only [e]'s place is left to find. *)
let rec place e l =
  match l with
  | x :: rest when compare x e < 0 -> x :: place e rest
  | _ -> e :: l

(* Top-level functions rather than closures over [e], so an insert
   allocates only the list cells it rebuilds. *)
let rec go e l =
  match l with
  | [] -> [ e ]
  | x :: rest when x.pe_rx = e.pe_rx -> place e rest
  | x :: rest when compare x e < 0 -> x :: go e rest
  | _ -> e :: drop e.pe_rx l

let insert l e = go e l
