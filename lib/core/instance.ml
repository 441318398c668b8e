type t = {
  name : string;
  become_hungry : Types.pid -> unit;
  stop_eating : Types.pid -> unit;
  phase : Types.pid -> Types.phase;
  eats : Types.pid -> int;
  add_listener : (Types.pid -> Types.phase -> unit) -> unit;
  add_doorway_listener : (Types.pid -> unit) -> unit;
  check_invariants : unit -> unit;
}
