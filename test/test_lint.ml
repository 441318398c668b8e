(* The determinism & domain-safety lint (lib/lint): each fixture under
   lint_fixtures/ must fire exactly the expected (rule, line) pairs, the
   suppression fixture must be silent, and the real deterministic zone
   must be clean after the PR-2 satellite fixes.

   The typed fixtures (domain-escape, transitive effects,
   hot-path-alloc) are typechecked in-process against the switch's
   stdlib — no dune, no cmt files — then run through the same
   interprocedural passes `dune build @lint` uses. *)

(* The fixtures sit next to this file. Under [dune runtest] the working
   directory is the test's build directory; run from the repository
   root they are under test/. *)
let fixture_dir =
  if Sys.file_exists "lint_fixtures" then "lint_fixtures"
  else Filename.concat "test" "lint_fixtures"

let fixture name = Filename.concat fixture_dir name

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let typed_graph file =
  let path = fixture file in
  match Lint.Cmt_load.typecheck_source ~file:path (read_file path) with
  | Error msg -> Alcotest.failf "typecheck %s: %s" file msg
  | Ok u -> Lint.Callgraph.build [ u ]

let typed_findings pass file = pass (typed_graph file)

let typed_hits pass file =
  List.map (fun (f : Lint.Finding.t) -> (f.rule, f.line)) (typed_findings pass file)

let hits ?rules ?allowlist file =
  let report = Lint.Engine.lint_file ?rules ?allowlist file in
  Alcotest.(check (list string)) "no read/parse errors" [] (List.map fst report.errors);
  List.map (fun (f : Lint.Finding.t) -> (f.rule, f.line)) report.findings

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

let test_rng_exemption () =
  (* Random is sanctioned only inside a sim/rng.ml. *)
  let source = "let roll () = Random.int 6\n" in
  let clean = Lint.Engine.lint_source ~file:"lib/sim/rng.ml" source in
  Alcotest.(check int) "sim/rng.ml may use Random" 0 (List.length clean.findings);
  let dirty = Lint.Engine.lint_source ~file:"lib/net/rng_like.ml" source in
  check_hits "elsewhere Random fires"
    [ ("ambient-effects", 1) ]
    (List.map (fun (f : Lint.Finding.t) -> (f.rule, f.line)) dirty.findings)

let test_parse_error () =
  let report = Lint.Engine.lint_source ~file:"broken.ml" "let = in" in
  Alcotest.(check int) "syntax error reported, not raised" 1 (List.length report.errors)

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
    (typed_hits (fun g -> Lint.Effects.run g) "good_transitive_effect.ml")

let test_hot_path_alloc () =
  check_hits "every allocation form fires inside [@lint.hot]; not outside"
    [
      ("hot-path-alloc", 3);
      ("hot-path-alloc", 4);
      ("hot-path-alloc", 5);
      ("hot-path-alloc", 6);
      ("hot-path-alloc", 7);
    ]
    (typed_hits (fun g -> Lint.Hotpath.run g) "bad_hot_path_alloc.ml");
  check_hits "toplevel recursion and a justified cons are silent" []
    (typed_hits (fun g -> Lint.Hotpath.run g) "good_hot_path_alloc.ml")

(* ------------------------------------------------------------------ *)
(* Suppression hygiene.                                                *)
(* ------------------------------------------------------------------ *)

let run_hotpath_on ~registry ~file source =
  match Lint.Cmt_load.typecheck_source ~file source with
  | Error msg -> Alcotest.failf "typecheck %s: %s" file msg
  | Ok u -> Lint.Hotpath.run ~registry (Lint.Callgraph.build [ u ])

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

(* The real tree: the deterministic zone must be clean under the
   repository allowlist. dune copies library sources next to the test
   dir inside _build, so the zone is reachable at ../lib. *)
let test_zone_clean () =
  let dirs = List.map (Filename.concat "..") Lint.Zone.default_dirs in
  let files = Lint.Zone.files ~dirs () in
  if List.length files < 40 then () (* partial checkout: zone not materialised *)
  else begin
    let allowlist =
      Lint.Allowlist.of_list
        [ ("io-in-library", "lib/stats/table.ml"); ("io-in-library", "lib/stats/series.ml") ]
    in
    let report = Lint.Engine.lint_files ~allowlist files in
    Alcotest.(check (list string))
      "no parse errors in the zone" []
      (List.map fst report.errors);
    Alcotest.(check (list string))
      "deterministic zone lints clean" []
      (List.map Lint.Finding.to_text report.findings)
  end

(* Typed counterpart of [test_zone_clean]: load the zone's .cmt
   artifacts (present inside _build because the test links the zone
   libraries) and hold the interprocedural passes to the same bar. *)
let test_typed_zone_clean () =
  let dirs = List.map (Filename.concat "..") Lint.Zone.default_dirs in
  let res = Lint.Cmt_load.load_dirs dirs in
  if res.units = [] then () (* sandboxed run: artifacts not visible *)
  else begin
    Alcotest.(check (list string))
      "no unreadable cmts" [] (List.map fst res.errors);
    let graph = Lint.Callgraph.build res.units in
    let allowlist =
      Lint.Allowlist.of_list
        [ ("io-in-library", "lib/stats/table.ml"); ("io-in-library", "lib/stats/series.ml") ]
    in
    let findings =
      Lint.Escape.run graph
      @ Lint.Effects.run ~allowlist graph
      @ Lint.Hotpath.run graph
    in
    Alcotest.(check (list string))
      "typed passes are clean over the zone" []
      (List.map Lint.Finding.to_text findings)
  end

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
    Alcotest.test_case "hygiene: unused [@lint.allow]" `Quick test_unused_allow;
    Alcotest.test_case "hygiene: stale allowlist tracking" `Quick test_stale_allowlist_tracking;
    Alcotest.test_case "deterministic zone is clean" `Quick test_zone_clean;
    Alcotest.test_case "typed passes clean over the zone" `Quick test_typed_zone_clean;
  ]
