(* The determinism & domain-safety lint (lib/lint): each fixture under
   lint_fixtures/ must fire exactly the expected (rule, line) pairs, the
   suppression fixture must be silent, and the real deterministic zone
   must be clean.

   Fixtures are typechecked in-process against the switch's stdlib — no
   dune, no cmt files — then run through Lint.Pipeline, the passes
   `dune build @lint` runs over the zone's .cmt artifacts. *)

(* The fixtures sit next to this file. Under [dune runtest] the working
   directory is the test's build directory; run from the repository
   root they are under test/. *)
let fixture_dir =
  if Sys.file_exists "lint_fixtures" then "lint_fixtures"
  else Filename.concat "test" "lint_fixtures"

let fixture name = Filename.concat fixture_dir name

let load file =
  let loaded = Lint.Cmt_load.load_files [ file ] in
  Alcotest.(check (list string)) "no read/typecheck errors" [] (List.map fst loaded.errors);
  loaded.units

let typed_graph file = Lint.Callgraph.build (load (fixture file))

let typed_findings pass file = pass (typed_graph file)

let typed_hits pass file =
  List.map (fun (f : Lint.Finding.t) -> (f.rule, f.line)) (typed_findings pass file)

let findings ?rules ?allowlist file = Lint.Pipeline.run ?rules ?allowlist (load file)

let hits ?rules ?allowlist file =
  List.map (fun (f : Lint.Finding.t) -> (f.rule, f.line)) (findings ?rules ?allowlist file)

let check_hits name expected actual =
  Alcotest.(check (list (pair string int))) name expected actual

let test_nondet () =
  check_hits "bare fold and iter fire; sorted fold does not"
    [ ("nondet-iteration", 3); ("nondet-iteration", 8) ]
    (hits (fixture "bad_nondet_iteration.ml"))

let test_ambient () =
  check_hits "Random/Unix/Sys.time/exit all fire"
    [
      ("ambient-effects", 3);
      ("ambient-effects", 5);
      ("ambient-effects", 7);
      ("ambient-effects", 9);
    ]
    (hits (fixture "bad_ambient_effects.ml"))

let test_io () =
  check_hits "printf and print_endline fire"
    [ ("io-in-library", 2); ("io-in-library", 4) ]
    (hits (fixture "bad_io_in_library.ml"))

let test_physical_eq () =
  check_hits "boxed == / != fire; int-literal comparison does not"
    [ ("physical-equality", 4); ("physical-equality", 6) ]
    (hits (fixture "bad_physical_equality.ml"))

let test_mutable_global () =
  check_hits "toplevel allocations fire; per-call allocation does not"
    [ ("mutable-global", 3); ("mutable-global", 5); ("mutable-global", 7) ]
    (hits (fixture "bad_mutable_global.ml"))

let test_exception_swallow () =
  check_hits "wildcard handler fires; Not_found handler does not"
    [ ("exception-swallow", 3) ]
    (hits (fixture "bad_exception_swallow.ml"))

let test_suppressed () =
  check_hits "[@lint.allow] silences every rule" [] (hits (fixture "suppressed.ml"))

let test_rule_selection () =
  (* With only io-in-library enabled, the ambient fixture is silent and
     the io fixture still fires. *)
  check_hits "disabled rules do not fire" []
    (hits ~rules:[ Lint.Rule.Io_in_library ] (fixture "bad_ambient_effects.ml"));
  check_hits "enabled rule still fires"
    [ ("io-in-library", 2); ("io-in-library", 4) ]
    (hits ~rules:[ Lint.Rule.Io_in_library ] (fixture "bad_io_in_library.ml"))

let test_allowlist () =
  let allowlist =
    Lint.Allowlist.of_list [ ("io-in-library", fixture "bad_io_in_library.ml") ]
  in
  check_hits "allowlisted file is silent" [] (hits ~allowlist (fixture "bad_io_in_library.ml"));
  check_hits "allowlist is per-rule"
    [ ("ambient-effects", 3); ("ambient-effects", 5); ("ambient-effects", 7); ("ambient-effects", 9) ]
    (hits ~allowlist (fixture "bad_ambient_effects.ml"))

let typecheck ~file source =
  match Lint.Cmt_load.typecheck_source ~file source with
  | Ok u -> u
  | Error msg -> Alcotest.failf "typecheck %s: %s" file msg

let test_rng_exemption () =
  (* Random is sanctioned only inside a sim/rng.ml, and a caller of the
     wrapper inherits nothing from it. *)
  let source = "let roll () = Random.int 6\nlet die () = roll ()\n" in
  let clean = Lint.Pipeline.run [ typecheck ~file:"lib/sim/rng.ml" source ] in
  Alcotest.(check int) "sim/rng.ml may use Random" 0 (List.length clean);
  let dirty = Lint.Pipeline.run [ typecheck ~file:"lib/net/rng_like.ml" source ] in
  check_hits "elsewhere Random fires, and taints its caller"
    [ ("ambient-effects", 1); ("ambient-effects", 2) ]
    (List.map (fun (f : Lint.Finding.t) -> (f.rule, f.line)) dirty)

let test_parse_error () =
  (* The driver exits 2 on any of these; loading reports them, never
     raises. *)
  let is_error ~file source =
    Result.is_error (Lint.Cmt_load.typecheck_source ~file source)
  in
  Alcotest.(check bool) "syntax error reported" true (is_error ~file:"broken.ml" "let = in");
  Alcotest.(check bool) "type error reported" true
    (is_error ~file:"ill_typed.ml" "let x = 1 + true");
  let missing = Lint.Cmt_load.load_files [ fixture "no_such_file.ml" ] in
  Alcotest.(check (list string))
    "unreadable file reported" [ fixture "no_such_file.ml" ] (List.map fst missing.errors)

(* ------------------------------------------------------------------ *)
(* Typed interprocedural passes.                                       *)
(* ------------------------------------------------------------------ *)

let test_domain_escape () =
  let findings = typed_findings (fun g -> Lint.Escape.run g) "bad_domain_escape.ml" in
  check_hits "shared ref / shared table reaching run_batch fire"
    [ ("domain-escape", 14); ("domain-escape", 19); ("domain-escape", 24) ]
    (List.map (fun (f : Lint.Finding.t) -> (f.rule, f.line)) findings);
  (* The two-hop finding must name the forwarding chain. *)
  let two_hop = List.find (fun (f : Lint.Finding.t) -> f.line = 19) findings in
  let mentions needle =
    let hay = two_hop.message in
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "chain names tier1" true (mentions "tier1");
  Alcotest.(check bool) "chain names tier2" true (mentions "tier2");
  check_hits "shard-local / fresh / read-only captures are silent" []
    (typed_hits (fun g -> Lint.Escape.run g) "good_domain_escape.ml")

let test_transitive_effects () =
  check_hits
    "clean bindings inherit their helpers' effects, at their own binding"
    [
      ("ambient-effects", 4);
      ("ambient-effects", 5);
      ("io-in-library", 8);
      ("mutable-global", 12);
    ]
    (typed_hits (fun g -> Lint.Effects.run g) "bad_transitive_effect.ml");
  check_hits "sanctioned sources do not taint; local mutation is not an effect" []
    (typed_hits (fun g -> Lint.Effects.run g) "good_transitive_effect.ml");
  (* The whole pipeline: each direct use once, at its site; each
     transitive caller once, at its binding (column 1). *)
  Alcotest.(check (list (triple string int int)))
    "direct uses at their site, transitive callers at their binding"
    [
      ("ambient-effects", 3, 21);
      ("ambient-effects", 4, 1);
      ("ambient-effects", 5, 1);
      ("io-in-library", 7, 19);
      ("io-in-library", 8, 1);
      ("mutable-global", 10, 15);
      ("mutable-global", 12, 1);
    ]
    (List.map
       (fun (f : Lint.Finding.t) -> (f.rule, f.line, f.col))
       (findings (fixture "bad_transitive_effect.ml")))

let test_hot_path_alloc () =
  check_hits "every allocation form fires inside [@lint.hot]; not outside"
    [
      ("hot-path-alloc", 3);
      ("hot-path-alloc", 4);
      ("hot-path-alloc", 5);
      ("hot-path-alloc", 6);
      ("hot-path-alloc", 7);
      ("hot-path-alloc", 8);
    ]
    (typed_hits (fun g -> Lint.Hotpath.run g) "bad_hot_path_alloc.ml");
  check_hits "toplevel recursion, a justified cons and constant trees are silent" []
    (typed_hits (fun g -> Lint.Hotpath.run g) "good_hot_path_alloc.ml")

let test_hot_path_optional () =
  check_hits "a default-filled or left-open optional argument fires inside [@lint.hot]"
    [ ("hot-path-optional", 6); ("hot-path-optional", 7); ("hot-path-optional", 8) ]
    (typed_hits (fun g -> Lint.Hotpath.run g) "bad_hot_path_optional.ml");
  check_hits "written-out arguments, a plain callee and a justified call are silent" []
    (typed_hits (fun g -> Lint.Hotpath.run g) "good_hot_path_optional.ml");
  (* Its own rule: selecting only the allocation rule silences it. *)
  check_hits "hot-path-alloc alone does not report omissions" []
    (hits ~rules:[ Lint.Rule.Hot_path_alloc ] (fixture "bad_hot_path_optional.ml"));
  check_hits "the pipeline reports it under its own id"
    [ ("hot-path-optional", 6); ("hot-path-optional", 7); ("hot-path-optional", 8) ]
    (hits ~rules:[ Lint.Rule.Hot_path_optional ] (fixture "bad_hot_path_optional.ml"))

(* ------------------------------------------------------------------ *)
(* Suppression hygiene.                                                *)
(* ------------------------------------------------------------------ *)

let run_hotpath_on ~registry ~file source =
  Lint.Hotpath.run ~registry (Lint.Callgraph.build [ typecheck ~file source ])

let test_unused_allow () =
  (* An attribute that suppresses nothing is reported once its rule has
     been checked; one that earns its keep is not. *)
  let registry = Lint.Suppress.create () in
  let idle =
    run_hotpath_on ~registry ~file:"idle_allow.ml"
      "let[@lint.hot] f x = (x + 1 [@lint.allow \"hot-path-alloc\"])\n"
  in
  Alcotest.(check int) "nothing fired to suppress" 0 (List.length idle);
  let busy =
    run_hotpath_on ~registry ~file:"busy_allow.ml"
      "let[@lint.hot] push x l = (x :: l) [@lint.allow \"hot-path-alloc\"]\n"
  in
  Alcotest.(check int) "the justified cons is silent" 0 (List.length busy);
  Alcotest.(check (list (pair string int)))
    "only the idle attribute is stale"
    [ ("idle_allow.ml", 1) ]
    (List.map
       (fun (s : Lint.Suppress.site) -> (s.file, s.line))
       (Lint.Suppress.unused registry ~catalogue:[ "hot-path-alloc" ]))

let test_stale_allowlist_tracking () =
  (* The driver errors on allowlist entries that suppressed nothing;
     the tracking it relies on lives in Allowlist. *)
  let allowlist =
    Lint.Allowlist.of_list
      [
        ("io-in-library", fixture "bad_io_in_library.ml");
        ("io-in-library", fixture "bad_ambient_effects.ml");
      ]
  in
  ignore (hits ~allowlist (fixture "bad_io_in_library.ml"));
  ignore (hits ~allowlist (fixture "bad_ambient_effects.ml"));
  Alcotest.(check (list (pair string string)))
    "only the entry that suppressed nothing is stale"
    [ ("io-in-library", fixture "bad_ambient_effects.ml") ]
    (List.map
       (fun (e : Lint.Allowlist.entry) -> (e.rule, e.path))
       (Lint.Allowlist.unused allowlist))

(* The deterministic zone's .cmt artifacts. Under [dune runtest] the
   working directory is the test's build directory and the zone is at
   ../lib; from the repository root, [load_dirs] finds it under
   _build/default, as the CLI does. A run that loads no unit would check
   nothing, so it fails instead. *)
let load_zone () =
  let root = if Sys.file_exists "lint_fixtures" then ".." else Filename.current_dir_name in
  let res = Lint.Cmt_load.load_dirs (List.map (Filename.concat root) Lint.Zone.default_dirs) in
  if res.units = [] then
    Alcotest.fail "no .cmt artifact of the deterministic zone found: run dune build first";
  Alcotest.(check (list string)) "no unreadable cmts" [] (List.map fst res.errors);
  res.units

(* The real tree: every rule is clean over the zone. No allowlist: the
   zone needs none. *)
let test_zone_clean () =
  Alcotest.(check (list string))
    "deterministic zone lints clean" []
    (List.map Lint.Finding.to_text (Lint.Pipeline.run (load_zone ())))

(* The interprocedural passes on their own, over the zone's call graph:
   each must be clean without Lint.Pipeline's rule filter in front. *)
let test_typed_zone_clean () =
  let graph = Lint.Callgraph.build (load_zone ()) in
  let findings = Lint.Escape.run graph @ Lint.Effects.run graph @ Lint.Hotpath.run graph in
  Alcotest.(check (list string))
    "typed passes are clean over the zone" []
    (List.map Lint.Finding.to_text findings)

let suite =
  [
    Alcotest.test_case "fixture: nondet-iteration" `Quick test_nondet;
    Alcotest.test_case "fixture: ambient-effects" `Quick test_ambient;
    Alcotest.test_case "fixture: io-in-library" `Quick test_io;
    Alcotest.test_case "fixture: physical-equality" `Quick test_physical_eq;
    Alcotest.test_case "fixture: mutable-global" `Quick test_mutable_global;
    Alcotest.test_case "fixture: exception-swallow" `Quick test_exception_swallow;
    Alcotest.test_case "fixture: [@lint.allow] suppression" `Quick test_suppressed;
    Alcotest.test_case "rule selection (--rules)" `Quick test_rule_selection;
    Alcotest.test_case "allowlist file semantics" `Quick test_allowlist;
    Alcotest.test_case "sim/rng.ml Random exemption" `Quick test_rng_exemption;
    Alcotest.test_case "parse errors are reported" `Quick test_parse_error;
    Alcotest.test_case "typed fixture: domain-escape" `Quick test_domain_escape;
    Alcotest.test_case "typed fixture: transitive effects" `Quick test_transitive_effects;
    Alcotest.test_case "typed fixture: hot-path-alloc" `Quick test_hot_path_alloc;
    Alcotest.test_case "typed fixture: hot-path-optional" `Quick test_hot_path_optional;
    Alcotest.test_case "hygiene: unused [@lint.allow]" `Quick test_unused_allow;
    Alcotest.test_case "hygiene: stale allowlist tracking" `Quick test_stale_allowlist_tracking;
    Alcotest.test_case "deterministic zone is clean" `Quick test_zone_clean;
    Alcotest.test_case "typed passes clean over the zone" `Quick test_typed_zone_clean;
  ]
