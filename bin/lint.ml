(* lint — the determinism & domain-safety static-analysis pass.

   Every rule runs on typed units (Lint.Pipeline): a zone scan reads the
   zone's .cmt artifacts — `dune build @lint` depends on @check and runs
   from the build context so they are in place; from the repository
   root they are found under _build/default — and positional FILEs are
   typechecked in-process instead (they must be self-contained).

   Hygiene: every [@lint.allow] site is tracked across all passes. A
   site that suppressed nothing although every rule it names was
   checked is an `unused-allow` finding.

   Exit codes: 0 clean, 1 findings, 2 on unreadable or ill-typed inputs,
   an empty scan or bad flags. *)

open Cmdliner

let rules_arg =
  Arg.(
    value & opt (some string) None
    & info [ "rules" ] ~docv:"IDS"
        ~doc:
          "Comma-separated rule ids to enable (default: all). See $(b,--list-rules) for \
           the catalogue.")

let zone_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "zone" ] ~docv:"DIR"
        ~doc:
          "Restrict the scan to this directory's .cmt artifacts (repeatable, \
           comma-separable). Defaults to the deterministic zone: lib/obs, lib/sim, \
           lib/core, lib/net, lib/detector, lib/graph, lib/harness, lib/monitor, \
           lib/stabilize, lib/baselines, lib/mcheck, lib/exec, lib/stats, lib/fuzz.")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("github", `Github) ]) `Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Output format: $(b,text) (file:line:col) or $(b,github) (CI annotations).")

let list_rules_arg =
  Arg.(value & flag & info [ "list-rules" ] ~doc:"Print the rule catalogue and exit.")

let files_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"FILE"
        ~doc:"Typecheck and lint these files instead of scanning the zone.")

let split_commas args = List.concat_map (String.split_on_char ',') args

let list_rules () =
  List.iter
    (fun r -> Printf.printf "%-18s %s\n\n" (Lint.Rule.name r) (Lint.Rule.explanation r))
    Lint.Rule.all

(* Sites every rule of which was actually checked this run; a bare
   [@lint.allow] needs the whole suppressible catalogue. *)
let suppressible_catalogue =
  List.filter_map
    (fun r -> if List.mem r Lint.Rule.meta then None else Some (Lint.Rule.name r))
    Lint.Rule.all

let unused_allow_findings ~rules ~registry =
  if not (List.mem Lint.Rule.Unused_allow rules) then []
  else
    Lint.Suppress.unused registry ~catalogue:suppressible_catalogue
    |> List.map (fun (s : Lint.Suppress.site) ->
           {
             Lint.Finding.file = s.file;
             line = s.line;
             col = s.col;
             rule = Lint.Rule.name Lint.Rule.Unused_allow;
             message =
               Printf.sprintf "[@lint.allow %S] suppressed nothing this run; remove it"
                 (String.concat "," s.rules);
           })

let go rules zone format list_rules_only files =
  if list_rules_only then begin
    list_rules ();
    0
  end
  else
    let bad_rules = ref [] in
    let rules =
      match rules with
      | None -> Lint.Rule.all
      | Some csv ->
          List.filter_map
            (fun name ->
              match Lint.Rule.of_name name with
              | Some r -> Some r
              | None ->
                  bad_rules := name :: !bad_rules;
                  None)
            (split_commas [ csv ] |> List.filter (fun s -> s <> ""))
    in
    List.iter (Printf.eprintf "lint: unknown rule %S (see --list-rules)\n") !bad_rules;
    let loaded =
      if files <> [] then Lint.Cmt_load.load_files files
      else
        Lint.Cmt_load.load_dirs (if zone = [] then Lint.Zone.default_dirs else split_commas zone)
    in
    let targets = List.map (fun (u : Lint.Cmt_load.unit_info) -> u.source) loaded.units in
    if !bad_rules <> [] then 2
    else if targets = [] && loaded.errors = [] then begin
      Printf.eprintf
        "lint: nothing to scan (no .cmt artifacts in the zone; build it first, e.g. `dune \
         build @check`)\n";
      2
    end
    else begin
      let registry = Lint.Suppress.create () in
      let findings = Lint.Pipeline.run ~rules ~registry loaded.units in
      let findings =
        findings @ unused_allow_findings ~rules ~registry |> List.sort_uniq Lint.Finding.compare
      in
      List.iter (fun (file, msg) -> Printf.eprintf "lint: %s: %s\n" file msg) loaded.errors;
      let render =
        match format with `Text -> Lint.Finding.to_text | `Github -> Lint.Finding.to_github
      in
      List.iter (fun f -> print_endline (render f)) findings;
      match (loaded.errors, findings) with
      | _ :: _, _ -> 2
      | [], _ :: _ ->
          Printf.eprintf "lint: %d finding(s) in %d file(s)\n" (List.length findings)
            (List.length targets);
          1
      | [], [] ->
          Printf.printf "lint: %d file(s) clean\n" (List.length targets);
          0
    end

let cmd =
  Cmd.v
    (Cmd.info "lint" ~version:"%%VERSION%%"
       ~doc:"Determinism & domain-safety static analysis for the simulation core.")
    Term.(
      const go $ rules_arg $ zone_arg $ format_arg $ list_rules_arg $ files_arg)

let () = exit (Cmd.eval' cmd)
