let digest_experiment (e : Registry.experiment) ~mode ~seed =
  let sink, series = Sweep.run_cell e ~mode ~seed in
  let d = Check.Digest.create () in
  Check.Digest.add_string d e.Registry.id;
  Check.Digest.add_char d '\n';
  List.iter
    (fun s ->
      Check.Digest.add_string d (Series.to_csv s);
      Check.Digest.add_char d '\n')
    series;
  Check.Digest.add_string d (Obs.Json.to_string (Obs.Sink.to_json sink));
  Check.Digest.to_hex d

let compute ?(experiments = Registry.all) ~jobs ~mode ~seed () =
  let tasks =
    List.map
      (fun e () -> (e.Registry.id, digest_experiment e ~mode ~seed))
      experiments
  in
  Par.map ~jobs tasks

let to_file_format pairs =
  String.concat ""
    (List.map (fun (id, hex) -> Printf.sprintf "%s %s\n" id hex) pairs)

let parse_file_format text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | None -> None
           | Some i ->
               Some
                 ( String.sub line 0 i,
                   String.trim
                     (String.sub line (i + 1) (String.length line - i - 1)) ))

let diff ~expected ~actual =
  let mismatches =
    List.filter_map
      (fun (id, want) ->
        match List.assoc_opt id actual with
        | None -> Some (id, `Missing)
        | Some got when got <> want -> Some (id, `Mismatch (want, got))
        | Some _ -> None)
      expected
  in
  let extras =
    List.filter_map
      (fun (id, _) ->
        if List.mem_assoc id expected then None else Some (id, `Extra))
      actual
  in
  mismatches @ extras
