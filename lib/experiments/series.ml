type t = {
  title : string;
  xlabel : string;
  ylabels : string list;
  rows : (float * float list) list;
  notes : string list;
}

let make ~title ~xlabel ~ylabels ?(notes = []) rows =
  let width = List.length ylabels in
  List.iter
    (fun (_, ys) ->
      if List.length ys <> width then
        invalid_arg
          (Printf.sprintf "Series.make (%s): row width %d, expected %d" title
             (List.length ys) width))
    rows;
  { title; xlabel; ylabels; rows; notes }

let fmt_cell v =
  if Float.is_nan v then "-"
  else if Float.is_integer v && abs_float v < 1e9 then
    Printf.sprintf "%.0f" v
  else if abs_float v >= 1000. then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.4g" v

let pp ppf t =
  Format.fprintf ppf "== %s ==@." t.title;
  let headers = t.xlabel :: t.ylabels in
  let rows_txt =
    List.map (fun (x, ys) -> List.map fmt_cell (x :: ys)) t.rows
  in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> Stdlib.max acc (String.length (List.nth row i)))
          (String.length h) rows_txt)
      headers
  in
  let print_row cells =
    List.iteri
      (fun i c ->
        let w = List.nth widths i in
        Format.fprintf ppf "%s%s  " (String.make (w - String.length c) ' ') c)
      cells;
    Format.fprintf ppf "@."
  in
  print_row headers;
  List.iter print_row rows_txt;
  List.iter (fun n -> Format.fprintf ppf "note: %s@." n) t.notes

let to_csv t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (String.concat "," (t.xlabel :: t.ylabels));
  Buffer.add_char buf '\n';
  List.iter
    (fun (x, ys) ->
      Buffer.add_string buf
        (String.concat "," (List.map (Printf.sprintf "%.6g") (x :: ys)));
      Buffer.add_char buf '\n')
    t.rows;
  Buffer.contents buf

let to_json t =
  Obs.Json.Obj
    [
      ("title", Obs.Json.Str t.title);
      ("xlabel", Obs.Json.Str t.xlabel);
      ("ylabels", Obs.Json.Arr (List.map (fun l -> Obs.Json.Str l) t.ylabels));
      ( "rows",
        Obs.Json.Arr
          (List.map
             (fun (x, ys) ->
               Obs.Json.Arr (List.map (fun v -> Obs.Json.Float v) (x :: ys)))
             t.rows) );
      ("notes", Obs.Json.Arr (List.map (fun n -> Obs.Json.Str n) t.notes));
    ]

(* Plot size in text columns and rows. *)
let width = 72
let height = 12

let render_ascii t ~col =
  if col < 0 || col >= List.length t.ylabels then
    invalid_arg "Series.render_ascii: column out of range";
  let pts =
    List.filter_map
      (fun (x, ys) ->
        let y = List.nth ys col in
        if Float.is_nan y then None else Some (x, y))
      t.rows
  in
  match pts with
  | [] -> "(no data)\n"
  | _ ->
      let xs = List.map fst pts and ys = List.map snd pts in
      let xmin = List.fold_left Float.min (List.hd xs) xs in
      let xmax = List.fold_left Float.max (List.hd xs) xs in
      let ymin = Float.min 0. (List.fold_left Float.min (List.hd ys) ys) in
      let ymax = List.fold_left Float.max (List.hd ys) ys in
      let yspan = if ymax -. ymin <= 0. then 1. else ymax -. ymin in
      let xspan = if xmax -. xmin <= 0. then 1. else xmax -. xmin in
      let grid = Array.make_matrix height width ' ' in
      List.iter
        (fun (x, y) ->
          let cx =
            int_of_float ((x -. xmin) /. xspan *. float_of_int (width - 1))
          in
          let cy =
            int_of_float ((y -. ymin) /. yspan *. float_of_int (height - 1))
          in
          grid.(height - 1 - cy).(cx) <- '*')
        pts;
      let buf = Buffer.create ((width + 16) * height) in
      Buffer.add_string buf
        (Printf.sprintf "%s vs %s\n" (List.nth t.ylabels col) t.xlabel);
      Array.iteri
        (fun r row ->
          let yv = ymax -. (float_of_int r /. float_of_int (height - 1) *. yspan) in
          Buffer.add_string buf (Printf.sprintf "%10s |" (fmt_cell yv));
          Array.iter (Buffer.add_char buf) row;
          Buffer.add_char buf '\n')
        grid;
      Buffer.add_string buf (String.make 11 ' ');
      Buffer.add_char buf '+';
      Buffer.add_string buf (String.make width '-');
      Buffer.add_char buf '\n';
      Buffer.add_string buf
        (Printf.sprintf "%11s%-10s%*s\n" "" (fmt_cell xmin)
           (width - 8) (fmt_cell xmax));
      Buffer.contents buf
