type detector_kind =
  | Never
  | Perfect
  | Oracle of { detection_delay : int; fp_per_edge : int; fp_window : Sim.Time.t; fp_max_len : int }
  | Heartbeat of { period : int; initial_timeout : int; bump : int }
  | Unreliable of { period : int; duration : int }

type algo_kind = Song_pike | Fork_only | Chandy_misra | Ordered

type crash_plan =
  | No_crashes
  | Crash_at of (int * Sim.Time.t) list
  | Random_crashes of { count : int; from_t : Sim.Time.t; to_t : Sim.Time.t }

type workload = { think : int * int; eat : int * int }

type t = {
  name : string;
  topology : Cgraph.Topology.spec;
  seed : int64;
  delay : Net.Delay.t;
  detector : detector_kind;
  algo : algo_kind;
  workload : workload;
  crashes : crash_plan;
  horizon : Sim.Time.t;
  check_every : int option;
  acks_per_session : int;
}

let quiet_oracle = Oracle { detection_delay = 50; fp_per_edge = 0; fp_window = 0; fp_max_len = 1 }

let noisy_oracle =
  Oracle { detection_delay = 50; fp_per_edge = 2; fp_window = 8_000; fp_max_len = 200 }

let default_heartbeat = Heartbeat { period = 20; initial_timeout = 30; bump = 25 }
let default_workload = { think = (50, 400); eat = (10, 60) }
let contended_workload = { think = (0, 0); eat = (10, 40) }

let default =
  {
    name = "default";
    topology = Cgraph.Topology.Ring 8;
    seed = 1L;
    delay = Net.Delay.Uniform (1, 8);
    detector = Oracle { detection_delay = 50; fp_per_edge = 2; fp_window = 5_000; fp_max_len = 200 };
    algo = Song_pike;
    workload = default_workload;
    crashes = Random_crashes { count = 1; from_t = 2_000; to_t = 10_000 };
    horizon = 60_000;
    check_every = Some 97;
    acks_per_session = 1;
  }

let detector_name = function
  | Never -> "never"
  | Perfect -> "perfect"
  | Oracle _ -> "oracle-evp"
  | Heartbeat _ -> "heartbeat-evp"
  | Unreliable _ -> "unreliable-forever"

let algo_name = function
  | Song_pike -> "song-pike"
  | Fork_only -> "fork-only"
  | Chandy_misra -> "chandy-misra"
  | Ordered -> "ordered"
