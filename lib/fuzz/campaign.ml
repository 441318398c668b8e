type failure = {
  case : int;
  property : string;
  message : string;
  scenario : Harness.Scenario.t;
  shrunk : Harness.Scenario.t;
  shrink_steps : int;
  shrink_attempts : int;
  shrunk_message : string;
}

type report = {
  seed : int64;
  profile : Gen.profile;
  cases : int;
  checked : (string * int) list;
  failures : failure list;
  total_eats : int;
  total_events : int;
}

(* Everything one case contributes to the report. Cases are evaluated in
   worker domains and merged in case order, so nothing here may depend
   on scheduling. *)
type case_result = {
  cr_checked : string list;
  cr_failures : failure list;
  cr_eats : int;
  cr_events : int;
}

let run ?(domains = 1) ?(profile = Gen.Sound) ?(properties = Property.all)
    ?(shrink = true) ~seed ~cases () =
  let run_case case =
    let s = Gen.scenario ~profile ~campaign_seed:seed ~case in
    let props =
      match profile with
      | Gen.Sound -> List.filter (fun (p : Property.t) -> p.applicable s) properties
      | Gen.Hostile -> properties
    in
    let r = Harness.World.run s in
    let fails = Property.failures props r in
    let failures =
      (* Only the case's first failing property is minimized: under
         [Hostile] one bad scenario often trips several oracles at once,
         and one reproducer per case is what the report needs. *)
      List.mapi
        (fun i (name, message) ->
          let p = List.find (fun (p : Property.t) -> p.name = name) props in
          if shrink && i = 0 then (
            let still_failing s' =
              p.Property.check (Harness.World.run s') <> None
            in
            let m = Shrink.minimize ~still_failing s in
            let shrunk_message =
              match p.Property.check (Harness.World.run m.Shrink.scenario) with
              | Some msg -> msg
              | None -> message
            in
            {
              case;
              property = name;
              message;
              scenario = s;
              shrunk = m.Shrink.scenario;
              shrink_steps = m.Shrink.steps;
              shrink_attempts = m.Shrink.attempts;
              shrunk_message;
            })
          else
            {
              case;
              property = name;
              message;
              scenario = s;
              shrunk = s;
              shrink_steps = 0;
              shrink_attempts = 0;
              shrunk_message = message;
            })
        fails
    in
    {
      cr_checked = List.map (fun (p : Property.t) -> p.name) props;
      cr_failures = failures;
      cr_eats = r.Harness.World.total_eats;
      cr_events = r.Harness.World.events_processed;
    }
  in
  let results =
    Exec.Pool.with_pool ~domains (fun pool -> Exec.Pool.init pool cases run_case)
  in
  let rs = Array.to_list results in
  let checked =
    List.map
      (fun (p : Property.t) ->
        ( p.name,
          List.fold_left
            (fun acc cr -> if List.mem p.name cr.cr_checked then acc + 1 else acc)
            0 rs ))
      properties
  in
  {
    seed;
    profile;
    cases;
    checked;
    failures = List.concat_map (fun cr -> cr.cr_failures) rs;
    total_eats = List.fold_left (fun acc cr -> acc + cr.cr_eats) 0 rs;
    total_events = List.fold_left (fun acc cr -> acc + cr.cr_events) 0 rs;
  }

let pp ppf (r : report) =
  Format.fprintf ppf "campaign seed=%Ld profile=%s cases=%d@." r.seed
    (Gen.profile_name r.profile) r.cases;
  Format.fprintf ppf "checked:@.";
  List.iter
    (fun (name, n) -> Format.fprintf ppf "  %-16s %d cases@." name n)
    r.checked;
  Format.fprintf ppf "totals: eats=%d events=%d@." r.total_eats r.total_events;
  Format.fprintf ppf "failures: %d@." (List.length r.failures);
  List.iter
    (fun f ->
      Format.fprintf ppf "@.case %d violates %s@.  %s@." f.case f.property
        f.message;
      Format.fprintf ppf "  scenario: %s@." (Repro.describe f.scenario);
      if f.shrink_steps > 0 || f.shrink_attempts > 0 then (
        Format.fprintf ppf "  shrunk (%d steps, %d attempts): %s@."
          f.shrink_steps f.shrink_attempts
          (Repro.describe f.shrunk);
        Format.fprintf ppf "  shrunk verdict: %s@." f.shrunk_message))
    r.failures
