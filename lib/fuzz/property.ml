type t = {
  name : string;
  claim : string;
  applicable : Harness.Scenario.t -> bool;
  check : Harness.World.report -> string option;
}

(* ------------------------- hypothesis helpers ---------------------- *)

(* Eventually accurate: false suspicions stop. Never is trivially
   accurate (it never suspects anyone); Unreliable is the designed
   counterexample. *)
let eventually_accurate (s : Harness.Scenario.t) =
  match s.detector with
  | Harness.Scenario.Never | Harness.Scenario.Perfect | Harness.Scenario.Oracle _
  | Harness.Scenario.Heartbeat _ ->
      true
  | Harness.Scenario.Unreliable _ -> false

(* Complete: every crash is eventually suspected by every live neighbor.
   Never is the designed counterexample. *)
let complete (s : Harness.Scenario.t) =
  match s.detector with
  | Harness.Scenario.Perfect | Harness.Scenario.Oracle _ | Harness.Scenario.Heartbeat _
  | Harness.Scenario.Unreliable _ ->
      true
  | Harness.Scenario.Never -> false

let crash_free (s : Harness.Scenario.t) =
  match s.crashes with
  | Harness.Scenario.No_crashes -> true
  | Harness.Scenario.Crash_at l -> l = []
  | Harness.Scenario.Random_crashes { count; _ } -> count = 0

let song_pike (s : Harness.Scenario.t) = s.algo = Harness.Scenario.Song_pike

(* --------------------------- the oracles --------------------------- *)

let lemmas =
  {
    name = "lemmas";
    claim = "every executable lemma holds at every periodic check";
    applicable = (fun s -> s.check_every <> None);
    check =
      (fun r ->
        match r.invariant_error with
        | None -> None
        | Some msg -> Some (Printf.sprintf "invariant violated: %s" msg));
  }

let eventual_weak_exclusion =
  {
    name = "exclusion";
    claim = "Theorem 1: exclusion violations cease once the detector settles";
    applicable = (fun s -> song_pike s && eventually_accurate s);
    check =
      (fun r ->
        match Harness.World.late_violations r with
        | 0 -> None
        | late ->
            Some
              (Printf.sprintf
                 "%d exclusion violation(s) after t=%d (convergence %s, horizon %d)" late
                 (Harness.World.settle_cutoff r)
                 (Sim.Time.to_string r.convergence)
                 r.horizon));
  }

let wait_freedom =
  {
    name = "wait-freedom";
    claim = "Theorem 2: every live hungry process is eventually served";
    applicable =
      (fun s ->
        match s.algo with
        | Harness.Scenario.Song_pike -> complete s || crash_free s
        | Harness.Scenario.Chandy_misra | Harness.Scenario.Ordered -> crash_free s
        | Harness.Scenario.Fork_only -> false);
    check =
      (fun r ->
        match Harness.World.starved r with
        | [] -> None
        | pids ->
            Some
              (Printf.sprintf "starved (hungry > %d ticks at horizon): %s"
                 (Harness.World.patience r)
                 (String.concat "," (List.map string_of_int pids))));
  }

let bounded_waiting =
  {
    name = "bounded-waiting";
    claim = "Theorem 3/E11: at most acks_per_session+1 consecutive overtakes after settling";
    applicable =
      (fun s -> song_pike s && eventually_accurate s && (complete s || crash_free s));
    check =
      (fun r ->
        let bound = Harness.World.overtake_bound r and worst = Harness.World.late_overtakes r in
        if worst <= bound then None
        else
          Some
            (Printf.sprintf
               "%d consecutive overtakes of one waiting process after t=%d (bound %d)"
               worst (Harness.World.settle_cutoff r) bound));
  }

let channel_bound_with ~bound =
  {
    name = "channel-bound";
    claim = "Section 7: at most 4 messages in transit per conflict edge";
    applicable = (fun s -> song_pike s && s.acks_per_session = 1);
    check =
      (fun r ->
        let w = Net.Link_stats.max_edge_watermark r.link_stats in
        if w <= bound then None
        else
          Some (Printf.sprintf "edge in-flight watermark %d exceeds the bound %d" w bound));
  }

let channel_bound = channel_bound_with ~bound:4

let quiescence_grace = 5_000

let quiescence =
  {
    name = "quiescence";
    claim = "Section 7: crashed processes eventually receive no dining messages";
    applicable = (fun s -> song_pike s && complete s && eventually_accurate s);
    check =
      (fun r ->
        let noisy =
          List.filter_map
            (fun (pid, at) ->
              match Net.Link_stats.last_send_to r.link_stats pid with
              | Some last when last > Sim.Time.add at quiescence_grace ->
                  Some (Printf.sprintf "p%d (last send at t=%d)" pid last)
              | _ -> None)
            r.crashed
        in
        match noisy with
        | [] -> None
        | l ->
            Some
              (Printf.sprintf "messages still addressed to victims %d ticks after crash: %s"
                 quiescence_grace (String.concat ", " l)));
  }

let all =
  [ lemmas; eventual_weak_exclusion; wait_freedom; bounded_waiting; channel_bound; quiescence ]

let find name = List.find_opt (fun p -> p.name = name) all
let applicable s = List.filter (fun p -> p.applicable s) all

let failures props r =
  List.filter_map (fun p -> Option.map (fun msg -> (p.name, msg)) (p.check r)) props
