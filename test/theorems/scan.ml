(* Exhaustive seed scan of one theorem property's input space: every
   case of every seed in [FROM, TO], checked by the property's
   Fuzz.Property oracles. Prints each failing case and a one-line
   summary; exits 1 when any case fails.

     scan.exe SPACE FROM TO     SPACE: wait-freedom | exclusion |
                                       bounded-waiting | channel-bound *)

let usage () =
  prerr_endline
    ("usage: scan.exe SPACE FROM TO  (SPACE: "
    ^ String.concat " | " (List.map fst Theorem_cases.all)
    ^ ")");
  exit 2

let () =
  let space, lo, hi =
    match Array.to_list Sys.argv with
    | [ _; name; lo; hi ] -> (
        match (List.assoc_opt name Theorem_cases.all, int_of_string_opt lo, int_of_string_opt hi) with
        | Some space, Some lo, Some hi when 0 <= lo && lo <= hi -> (space, lo, hi)
        | _ -> usage ())
    | _ -> usage ()
  in
  let worlds = ref 0 and failing = ref 0 in
  for seed = lo to hi do
    for i = 0 to space.per_seed - 1 do
      let s = space.case ~seed i in
      incr worlds;
      match Theorem_cases.failures space s with
      | [] -> ()
      | fails ->
          incr failing;
          List.iter
            (fun (p, msg) ->
              Printf.printf "FAIL seed %d case %d (%s): %s: %s\n%!" seed i
                (Cgraph.Topology.name s.topology) p msg)
            fails
    done
  done;
  Printf.printf "%s: seeds %d..%d, %d worlds, %d failing\n" space.name lo hi !worlds !failing;
  if !failing > 0 then exit 1
