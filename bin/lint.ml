(* lint — the determinism & domain-safety static-analysis pass.

   Every rule runs on typed units (Lint.Pipeline): a zone scan reads the
   zone's .cmt artifacts — `dune build @lint` depends on @check and runs
   from the build context so they are in place; from the repository
   root they are found under _build/default — and positional FILEs are
   typechecked in-process instead (they must be self-contained).

   Hygiene: every [@lint.allow] site and allowlist entry is tracked
   across all passes. Stale allowlist entries (suppressed nothing,
   their rule was checked, their path was scanned) are findings; unused
   [@lint.allow] attributes are warnings.

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

let allowlist_arg =
  Arg.(
    value & opt (some file) None
    & info [ "allowlist" ] ~docv:"FILE"
        ~doc:
          "Allowlist file ($(i,rule-id path) per line, # comments). Defaults to \
           ./lint.allow when present.")

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

let stale_allowlist_findings ~rules ~registry ~allowlist ~allowlist_path ~targets =
  if not (List.mem Lint.Rule.Stale_allowlist rules) then []
  else
    let checked = Lint.Suppress.checked_rules registry in
    let rule_checked r =
      if r = "*" then List.for_all (fun c -> List.mem c checked) suppressible_catalogue
      else List.mem r checked
    in
    Lint.Allowlist.unused allowlist
    |> List.filter (fun (e : Lint.Allowlist.entry) ->
           rule_checked e.rule
           && List.exists (fun f -> Lint.Allowlist.path_matches ~entry:e ~file:f) targets)
    |> List.map (fun (e : Lint.Allowlist.entry) ->
           {
             Lint.Finding.file = allowlist_path;
             line = e.line;
             col = 1;
             rule = Lint.Rule.name Lint.Rule.Stale_allowlist;
             message =
               Printf.sprintf
                 "allowlist entry `%s %s` suppressed nothing this run; the code it \
                  excused is gone — remove the entry"
                 e.rule e.path;
           })

let report_unused_allows ~rules ~registry ~format =
  if not (List.mem Lint.Rule.Unused_allow rules) then 0
  else begin
    let sites = Lint.Suppress.unused registry ~catalogue:suppressible_catalogue in
    List.iter
      (fun (s : Lint.Suppress.site) ->
        let what = String.concat "," s.rules in
        match format with
        | `Text ->
            Printf.eprintf
              "%s:%d:%d: [unused-allow] [@lint.allow %S] suppressed nothing this run; \
               remove it\n"
              s.file s.line s.col what
        | `Github ->
            Printf.printf
              "::warning file=%s,line=%d,col=%d::[unused-allow] [@lint.allow %S] \
               suppressed nothing this run; remove it\n"
              s.file s.line s.col what)
      sites;
    List.length sites
  end

let go rules zone format allowlist list_rules_only files =
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
    let allowlist_path, allowlist =
      match allowlist with
      | Some f -> (f, Lint.Allowlist.load f)
      | None ->
          if Sys.file_exists "lint.allow" then ("lint.allow", Lint.Allowlist.load "lint.allow")
          else ("lint.allow", Lint.Allowlist.empty)
    in
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
      let findings = Lint.Pipeline.run ~rules ~allowlist ~registry loaded.units in
      let findings =
        findings @ stale_allowlist_findings ~rules ~registry ~allowlist ~allowlist_path ~targets
        |> List.sort_uniq Lint.Finding.compare
      in
      List.iter (fun (file, msg) -> Printf.eprintf "lint: %s: %s\n" file msg) loaded.errors;
      let render =
        match format with `Text -> Lint.Finding.to_text | `Github -> Lint.Finding.to_github
      in
      List.iter (fun f -> print_endline (render f)) findings;
      let unused_count = report_unused_allows ~rules ~registry ~format in
      match (loaded.errors, findings) with
      | _ :: _, _ -> 2
      | [], _ :: _ ->
          Printf.eprintf "lint: %d finding(s) in %d file(s)\n" (List.length findings)
            (List.length targets);
          1
      | [], [] ->
          Printf.printf "lint: %d file(s) clean%s\n" (List.length targets)
            (if unused_count > 0 then
               Printf.sprintf ", %d unused [@lint.allow] warning(s)" unused_count
             else "");
          0
    end

let cmd =
  Cmd.v
    (Cmd.info "lint" ~version:"%%VERSION%%"
       ~doc:"Determinism & domain-safety static analysis for the simulation core.")
    Term.(
      const go $ rules_arg $ zone_arg $ format_arg $ allowlist_arg $ list_rules_arg
      $ files_arg)

let () = exit (Cmd.eval' cmd)
