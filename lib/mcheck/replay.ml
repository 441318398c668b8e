(* Deterministic counterexample replay: drive the model along a recorded
   schedule (a list of transition labels) and report whether the same
   violation reappears. Because [Model.successors] is a pure function of
   the state and labels identify transitions uniquely at each state, a
   schedule exported by an exploration replays to the identical state
   sequence on every run. *)

type outcome =
  | Reproduced of { step : int; message : string; state : string }
  | Clean of int
  | Stuck of { step : int; label : string; available : string list }

let run ?check cfg labels =
  let check = match check with Some f -> f | None -> Model.check in
  (* The last state is expanded too: an exploration's trace to a
     Model_violation leads to the state whose expansion raised it. *)
  let rec go step state labels =
    match Model.successors cfg state with
    | exception Model.Model_violation msg ->
        Reproduced { step; message = msg; state = Model.describe state }
    | succs -> (
        match labels with
        | [] -> Clean step
        | label :: rest -> (
            match List.assoc_opt label succs with
            | None -> Stuck { step; label; available = List.map fst succs }
            | Some next -> (
                match check cfg next with
                | Some msg ->
                    Reproduced { step = step + 1; message = msg; state = Model.describe next }
                | None -> go (step + 1) next rest)))
  in
  let init = Model.initial cfg in
  match check cfg init with
  | Some msg -> Reproduced { step = 0; message = msg; state = Model.describe init }
  | None -> go 0 init labels

(* Schedules travel as Obs JSONL traces: one Mark record per step, with
   the transition label in [detail] and the step index as both seq and
   virtual time. [# ...] header lines carry human-readable context and
   are skipped by [of_jsonl] (and by Obs.Diff). *)

let step_tag = "mcheck.step"

let to_jsonl ?header labels =
  let buf = Buffer.create 256 in
  (match header with
  | Some h -> Buffer.add_string buf ("# " ^ h ^ "\n")
  | None -> ());
  List.iteri
    (fun i label ->
      Obs.Jsonl.append buf
        {
          Obs.Record.seq = i;
          time = i;
          kind = Obs.Record.Mark { subject = -1; tag = step_tag; detail = label };
        })
    labels;
  Buffer.contents buf

let of_jsonl contents =
  String.split_on_char '\n' contents
  |> List.filter_map (fun line ->
         if line = "" || line.[0] = '#' then None
         else
           match Obs.Jsonl.field_string line "tag" with
           | Some tag when tag = step_tag -> Obs.Jsonl.field_string line "detail"
           | _ -> None)

let pp_outcome ppf = function
  | Reproduced { step; message; state } ->
      Format.fprintf ppf "reproduced at step %d: %s in [%s]" step message state
  | Clean n -> Format.fprintf ppf "clean after %d steps (no violation)" n
  | Stuck { step; label; available } ->
      Format.fprintf ppf "stuck at step %d: no transition %S here (available: %s)" step
        label
        (String.concat ", " available)
