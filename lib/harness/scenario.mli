(** Declarative description of one simulation run.

    A scenario pins every stochastic and structural input of an
    experiment: topology, root seed, message-delay model, failure
    detector, daemon implementation, workload, crash plan and run length.
    Two runs of the same scenario are bit-identical. *)

type detector_kind =
  | Never
      (** No oracle — recovers the crash-intolerant Choy-Singh doorway
          algorithm when combined with {!Song_pike}. *)
  | Perfect
      (** Zero-latency perfect detector (perpetual exclusion comparator). *)
  | Oracle of { detection_delay : int; fp_per_edge : int; fp_window : Sim.Time.t; fp_max_len : int }
      (** Scripted ◇P₁: crashes detected after [detection_delay];
          [fp_per_edge] false-positive windows of up to [fp_max_len] ticks
          per directed edge, all before [fp_window]. *)
  | Heartbeat of { period : int; initial_timeout : int; bump : int }
      (** Real adaptive-timeout implementation over the network. *)
  | Unreliable of { period : int; duration : int }
      (** Complete but never accurate: false suspicions recur forever
          (violates exactly the eventual-accuracy half of ◇P₁; used by the
          necessity experiment E9). *)

val quiet_oracle : detector_kind
(** Scripted ◇P₁ that detects a crash 50 ticks after it and never
    suspects a live process. *)

val default_heartbeat : detector_kind
(** The heartbeat detector with period 20, initial timeout 30 and
    timeout bump 25. *)

type algo_kind =
  | Song_pike      (** Algorithm 1 — the paper's contribution. *)
  | Fork_only      (** Doorway ablation baseline. *)
  | Chandy_misra   (** Hygienic dynamic-priority baseline. *)
  | Ordered        (** Hierarchical (total-order) resource allocation baseline. *)

type crash_plan =
  | No_crashes
  | Crash_at of (int * Sim.Time.t) list
      (** Explicit (pid, time) crash schedule. *)
  | Random_crashes of { count : int; from_t : Sim.Time.t; to_t : Sim.Time.t }
      (** [count] distinct random victims crashing at random times in
          [\[from_t, to_t)], drawn from the scenario seed. *)

type workload = {
  think : int * int;
      (** Uniform thinking-time range in ticks; [(0, 0)] means processes
          get hungry again immediately (maximum contention). *)
  eat : int * int;  (** Uniform eating-duration range, >= 1 tick. *)
}

type t = {
  name : string;
  topology : Cgraph.Topology.spec;
  seed : int64;
  delay : Net.Delay.t;
  detector : detector_kind;
  algo : algo_kind;
  workload : workload;
  crashes : crash_plan;
  horizon : Sim.Time.t;  (** Run length in ticks. *)
  check_every : int option;
      (** Run the daemon's executable-invariant check every k ticks. *)
  acks_per_session : int;
      (** Song-Pike doorway fairness knob: acks granted per neighbor per
          hungry session. 1 = the paper's Algorithm 1 (eventual 2-bounded
          waiting); m yields eventual (m+1)-bounded waiting. Ignored by
          the baselines. *)
}

val default : t
(** 8-ring, Song-Pike with a scripted oracle, moderate contention, one
    random crash, horizon 60_000. *)

val default_workload : workload
val contended_workload : workload
(** Zero think time: everyone is hungry again immediately. *)

val detector_name : detector_kind -> string
val algo_name : algo_kind -> string
