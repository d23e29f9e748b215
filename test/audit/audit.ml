(* Surface audit over the typed trees the compiler writes (.cmt, .cmti).

     audit.exe [--libs DIR] FILE.cmt|FILE.cmti ... [HOOKS.txt]

   The .cmti of every library unit (not an executable's) declares the
   exports; the .cmt of every unit is a caller.  A finding is

   - an exported value that no other unit names, or
   - an optional argument of an exported value that no other unit
     passes.  The [None] the compiler fills in for an omitted optional
     argument is not a pass.

   Names are resolved through module aliases (dune's library wrappers,
   [module I = Check.Invariant]) and through [include]: where the
   struct [P] does [include Q] and defines no [x] itself, both [P.x]
   from outside and a bare [x] inside [P] name [Q.x].

   With [--libs DIR], every directory under DIR that holds a .ml file
   must contribute an input file, so a library missing from the inputs
   fails the run.

   A [.txt] input is an allow-list of test hooks, for a run whose
   inputs leave out the tests: each line is

     EXPORT | TEST FILE | CASE

   where EXPORT is a finding's name ([M.v], or [?l of M.f]) and CASE
   the name of a test case in TEST FILE (a path from the working
   directory) that needs it.  A listed finding is not reported.  A line
   is itself a finding when its export is no finding (stale), when it
   names no test file and case, or when that file has no case of that
   name or never mentions the value ([v], or [~l]).  Blank lines and
   lines starting with [#] are skipped.

   Findings go to stdout, one a line, sorted; the exit code is 1 if
   there is any.

   Only Typedtree constructors that OCaml 5.1 and 5.2 share are
   matched; the unit name comes from the file name, not the cmt
   header. *)

open Typedtree

type path = string list

let unit_of_file f =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename f))

(* [Netsim__Node; packets_received] -> "Netsim.Node.packets_received" *)
let display path =
  let dotted u =
    let b = Buffer.create (String.length u) in
    let n = String.length u in
    let i = ref 0 in
    while !i < n do
      if !i + 1 < n && u.[!i] = '_' && u.[!i + 1] = '_' then (
        Buffer.add_char b '.';
        i := !i + 2)
      else (
        Buffer.add_char b u.[!i];
        incr i)
    done;
    Buffer.contents b
  in
  String.concat "." (List.map dotted path)

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let rec drop n l = if n <= 0 then l else drop (n - 1) (List.tl l)

(* Filled from every implementation before any use is resolved. *)
let aliases : (path, path) Hashtbl.t = Hashtbl.create 256
let includes : (path, path) Hashtbl.t = Hashtbl.create 64
let defined : (path * string, unit) Hashtbl.t = Hashtbl.create 4096

type use = { user : string; name : path; passed : string list }

let uses : use list ref = ref []

type export = { key : path; file : string; line : int; optional : string list }

let exports : export list ref = ref []

(* An argument the caller wrote, not the [None] the compiler put in
   for an omitted optional argument. *)
let passed_label = function
  | Asttypes.Optional l, Some e -> (
      match e.exp_desc with
      | Texp_construct (_, { Types.cstr_name = "None"; _ }, [])
        when e.exp_loc.Location.loc_ghost ->
          None
      | _ -> Some l)
  | _ -> None

let read_impl user str =
  let locals : (string, path) Hashtbl.t = Hashtbl.create 64 in
  let bind id p = Hashtbl.replace locals (Ident.unique_name id) p in
  let rec of_path = function
    | Path.Pident id -> (
        match Hashtbl.find_opt locals (Ident.unique_name id) with
        | Some p -> Some p
        | None -> if Ident.global id then Some [ Ident.name id ] else None)
    | Path.Pdot (p, s) -> Option.map (fun p -> p @ [ s ]) (of_path p)
    | _ -> None
  in
  let rec alias_of me =
    match me.mod_desc with
    | Tmod_ident (p, _) -> of_path p
    | Tmod_constraint (me, _, _, _) -> alias_of me
    | _ -> None
  in
  let prefix = ref [ user ] in
  let define name = Hashtbl.replace defined (!prefix, name) () in
  let record p passed =
    Option.iter
      (fun name -> uses := { user; name; passed } :: !uses)
      (of_path p)
  in
  let super = Tast_iterator.default_iterator in
  let module_binding sub mb =
    match (mb.mb_id, mb.mb_name.txt) with
    | Some id, Some name -> (
        let here = !prefix @ [ name ] in
        define name;
        match alias_of mb.mb_expr with
        | Some target ->
            Hashtbl.replace aliases here target;
            bind id target
        | None ->
            bind id here;
            let saved = !prefix in
            prefix := here;
            super.module_binding sub mb;
            prefix := saved)
    | _ -> super.module_binding sub mb
  in
  let structure_item sub si =
    (match si.str_desc with
    | Tstr_value (_, vbs) ->
        List.iter (fun id -> define (Ident.name id)) (let_bound_idents vbs)
    | Tstr_primitive vd -> define vd.val_name.txt
    | Tstr_include incl ->
        Option.iter
          (fun target ->
            Hashtbl.add includes !prefix target;
            List.iter
              (function
                | Types.Sig_value (id, _, _) ->
                    bind id (target @ [ Ident.name id ])
                | _ -> ())
              incl.incl_type)
          (alias_of incl.incl_mod)
    | _ -> ());
    super.structure_item sub si
  in
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> record p []
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
        record p (List.filter_map passed_label args)
    | _ -> ());
    super.expr sub e
  in
  let it = { super with module_binding; structure_item; expr } in
  it.structure it str

let rec optional_labels ty =
  match Types.get_desc ty with
  | Types.Tarrow (Asttypes.Optional l, _, ret, _) -> l :: optional_labels ret
  | Types.Tarrow (_, _, ret, _) -> optional_labels ret
  | _ -> []

let rec read_intf file prefix sg =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          exports :=
            {
              key = prefix @ [ vd.val_name.txt ];
              file;
              line = vd.val_loc.loc_start.pos_lnum;
              optional = optional_labels vd.val_val.val_type;
            }
            :: !exports
      | Tsig_module
          {
            md_name = { txt = Some name; _ };
            md_type = { mty_desc = Tmty_signature sg; _ };
            _;
          } ->
          read_intf file (prefix @ [ name ]) sg
      | _ -> ())
    sg.sig_items

let read file =
  let unit = unit_of_file file in
  let cmt = Cmt_format.read_cmt file in
  match cmt.cmt_annots with
  | Cmt_format.Implementation str -> read_impl unit str
  | Cmt_format.Interface sg
    when not (String.starts_with ~prefix:"Dune__exe" unit) ->
      let file = Option.value cmt.cmt_sourcefile ~default:file in
      read_intf file [ unit ] sg
  | _ -> ()

(* Rewrites the longest aliased prefix until none is left. *)
let rec resolve fuel path =
  let n = List.length path in
  let rec find k =
    if k = 0 then path
    else
      match Hashtbl.find_opt aliases (take k path) with
      | Some target when fuel > 0 -> resolve (fuel - 1) (target @ drop k path)
      | _ -> find (k - 1)
  in
  find n

(* Every name a use reaches: itself, and through each include of a
   prefix that does not define the next component itself. *)
let rec targets path =
  let path = resolve 32 path in
  let n = List.length path in
  path
  :: List.concat_map
       (fun k ->
         let p = take k path and rest = drop k path in
         if Hashtbl.mem defined (p, List.hd rest) then []
         else
           List.concat_map
             (fun q -> targets (q @ rest))
             (Hashtbl.find_all includes p))
       (List.init (n - 1) (fun i -> i + 1))

let missing_libs root inputs =
  Sys.readdir root |> Array.to_list |> List.sort compare
  |> List.filter (fun d ->
         let dir = Filename.concat root d in
         Sys.is_directory dir
         && Array.exists
              (fun f -> Filename.check_suffix f ".ml")
              (Sys.readdir dir)
         && not
              (List.exists
                 (String.starts_with ~prefix:(dir ^ "/"))
                 inputs))

let read_file file = In_channel.with_open_bin file In_channel.input_all

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec from i = i + n <= m && (String.sub s i n = sub || from (i + 1)) in
  from 0

(* [(line, export, Some (test file, case) | None)] of an allow-list. *)
let read_hooks file =
  String.split_on_char '\n' (read_file file)
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  |> List.map (fun (n, l) ->
         match List.map String.trim (String.split_on_char '|' l) with
         | [ key; test; case ] when test <> "" && case <> "" ->
             (n, key, Some (test, case))
         | key :: _ -> (n, key, None)
         | [] -> (n, l, None))

(* What a test file must mention to need [key]: the value's own name,
   or [~l] for an optional argument. *)
let mention key =
  match String.index_opt key ' ' with
  | Some i when key.[0] = '?' -> "~" ^ String.sub key 1 (i - 1)
  | _ -> (
      match String.rindex_opt key '.' with
      | Some i -> String.sub key (i + 1) (String.length key - i - 1)
      | None -> key)

let hook_problem (test, case) key =
  if not (Sys.file_exists test) then Some (test ^ " does not exist")
  else
    let text = read_file test in
    if not (contains ~sub:("\"" ^ case ^ "\"") text) then
      Some (Printf.sprintf "%s has no case \"%s\"" test case)
    else if not (contains ~sub:(mention key) text) then
      Some (Printf.sprintf "%s never mentions %s" test (mention key))
    else None

let () =
  let libs = ref None and inputs = ref [] and hooks = ref [] in
  Arg.parse
    [
      ( "--libs",
        Arg.String (fun d -> libs := Some d),
        "DIR  each library directory under DIR must contribute an input" );
    ]
    (fun f ->
      if Filename.check_suffix f ".txt" then hooks := f :: !hooks
      else inputs := f :: !inputs)
    "audit.exe [--libs DIR] FILE.cmt|FILE.cmti ... [HOOKS.txt]";
  let inputs = List.rev !inputs in
  List.iter read inputs;
  let used = Hashtbl.create 1024 and passed = Hashtbl.create 256 in
  List.iter
    (fun { user; name; passed = labels } ->
      List.iter
        (fun t ->
          if List.hd t <> user then (
            Hashtbl.replace used t ();
            List.iter (fun l -> Hashtbl.replace passed (t, l) ()) labels))
        (targets name))
    !uses;
  let findings =
    List.concat_map
      (fun e ->
        let at = (e.file, e.line) in
        if not (Hashtbl.mem used e.key) then
          [ (at, display e.key, " is named by no other unit") ]
        else
          List.filter_map
            (fun l ->
              if Hashtbl.mem passed (e.key, l) then None
              else
                Some
                  ( at,
                    Printf.sprintf "?%s of %s" l (display e.key),
                    " is passed by no other unit" ))
            e.optional)
      !exports
  in
  let hooks =
    List.concat_map
      (fun f ->
        List.map (fun (line, key, test) -> ((f, line), key, test)) (read_hooks f))
      !hooks
  in
  let is_finding key = List.exists (fun (_, k, _) -> k = key) findings in
  let is_listed key = List.exists (fun (_, k, _) -> k = key) hooks in
  let findings =
    List.filter_map
      (fun (at, key, what) ->
        if is_listed key then None else Some (at, key ^ what))
      findings
    @ List.filter_map
        (fun (at, key, test) ->
          let problem =
            if not (is_finding key) then Some "is listed but is no finding"
            else
              match test with
              | None -> Some "is listed without a test file and case"
              | Some test -> hook_problem test key
          in
          Option.map (fun p -> (at, key ^ ": " ^ p)) problem)
        hooks
    @ (match !libs with
      | None -> []
      | Some root ->
          List.map
            (fun d -> ((Filename.concat root d, 0), "no input from this library"))
            (missing_libs root inputs))
  in
  let findings = List.sort_uniq compare findings in
  List.iter
    (fun ((file, line), what) ->
      if line = 0 then Printf.printf "%s: %s\n" file what
      else Printf.printf "%s:%d: %s\n" file line what)
    findings;
  exit (if findings = [] then 0 else 1)
