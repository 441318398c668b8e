(* Every lint pass over one set of typed units. *)

let run ?(rules = Rule.all) ?registry units =
  let graph = Callgraph.build units in
  let pass wanted run = if List.exists (fun r -> List.mem r rules) wanted then run () else [] in
  Sites.run ?registry ~rules units
  @ pass [ Domain_escape ] (fun () -> Escape.run ?registry graph)
  @ pass [ Hot_path_alloc; Hot_path_optional ] (fun () -> Hotpath.run ?registry graph)
  @ pass [ Ambient_effects; Io_in_library; Mutable_global ] (fun () ->
        Effects.run ?registry graph)
  |> List.filter (fun (f : Finding.t) -> List.exists (fun r -> Rule.name r = f.rule) rules)
  |> List.sort_uniq Finding.compare
