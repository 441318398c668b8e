(* Loading typed ASTs, the one input of every lint pass.

   Two sources:
   - [.cmt] artifacts under [_build] (a zone scan: `dune build @lint`
     depends on `@check`, which produces a .cmt per module, then runs
     the linter from the build directory);
   - in-process typechecking of source files (explicit files and test
     fixtures, typechecked directly against the current switch's
     stdlib, no dune involved).

   A unit is one compilation unit: its module name (e.g. "Sim__Wheel"),
   the source file it came from, and its typed structure. *)

type unit_info = {
  modname : string;  (* compilation-unit name, e.g. "Sim__Wheel" *)
  source : string;   (* source path, for findings *)
  str : Typedtree.structure;
}

type result = { units : unit_info list; errors : (string * string) list }

let read_cmt path =
  match Cmt_format.read_cmt path with
  | { cmt_annots = Cmt_format.Implementation str; cmt_modname; cmt_sourcefile; _ } ->
      let source = Option.value cmt_sourcefile ~default:path in
      Ok (Some { modname = cmt_modname; source; str })
  | _ -> Ok None (* interface-only or partial cmt: nothing to analyse *)
  | exception exn -> Error (Printexc.to_string exn)

(* dune's module-alias shim (lib.ml-gen) is generated, not ours. *)
let generated_source u = Filename.check_suffix u.source ".ml-gen"

let scan_dir acc dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | names ->
      Array.sort String.compare names;
      Array.fold_left
        (fun (units, errors) name ->
          if Filename.check_suffix name ".cmt" then
            match read_cmt (Filename.concat dir name) with
            | Ok (Some u) when not (generated_source u) -> (u :: units, errors)
            | Ok _ -> (units, errors)
            | Error msg -> (units, (Filename.concat dir name, msg) :: errors)
          else (units, errors))
        acc names

(* A dune library lib/<dir>/ keeps its artifacts in
   lib/<dir>/.<libname>.objs/byte/<Unit>.cmt. We scan every *.objs
   under the given roots so a library whose name differs from its
   directory still resolves. *)
let objs_dirs root =
  match Sys.readdir root with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter_map (fun n ->
             if Filename.check_suffix n ".objs" then
               let byte = Filename.concat (Filename.concat root n) "byte" in
               if Sys.file_exists byte && Sys.is_directory byte then Some byte else None
             else None)
      |> List.sort String.compare

(* From the repository root a library's artifacts are under
   _build/default, not next to its sources. *)
let artifact_dirs dir =
  match objs_dirs dir with
  | [] -> objs_dirs (Filename.concat (Filename.concat "_build" "default") dir)
  | found -> found

let load_dirs dirs =
  let units, errors =
    List.fold_left
      (fun acc dir -> List.fold_left scan_dir acc (artifact_dirs dir))
      ([], []) dirs
  in
  {
    units = List.sort (fun a b -> String.compare a.modname b.modname) units;
    errors = List.rev errors;
  }

(* ------------------------------------------------------------------ *)
(* In-process typechecking, for explicit files and fixtures.          *)
(* ------------------------------------------------------------------ *)

let env = ref None

let initial_env () =
  match !env with
  | Some e -> e
  | None ->
      (* stdlib sublibraries (unix, ...) trip the 5.x auto-include
         deprecation alert when referenced without -I; fixtures are
         allowed to mention them, so keep the output clean *)
      Warnings.parse_alert_option "-all";
      Compmisc.init_path ();
      let e = Compmisc.initial_env () in
      env := Some e;
      e

let typecheck_source ~file source =
  let e = initial_env () in
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf file;
  match
    let past = Parse.implementation lexbuf in
    Typemod.type_structure e past
  with
  | str, _, _, _, _ ->
      let modname =
        String.capitalize_ascii Filename.(remove_extension (basename file))
      in
      Ok { modname; source = file; str }
  | exception exn ->
      let msg =
        match Location.error_of_exn exn with
        | Some (`Ok err) -> Format.asprintf "%a" Location.print_report err
        | _ -> Printexc.to_string exn
      in
      Error msg

let load_files files =
  let units, errors =
    List.fold_left
      (fun (units, errors) file ->
        match In_channel.with_open_bin file In_channel.input_all with
        | exception Sys_error e -> (units, (file, e) :: errors)
        | source -> (
            match typecheck_source ~file source with
            | Ok u -> (u :: units, errors)
            | Error e -> (units, (file, e) :: errors)))
      ([], []) files
  in
  { units = List.rev units; errors = List.rev errors }
