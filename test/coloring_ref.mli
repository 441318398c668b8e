(** The reference greedy colouring [Cgraph.Coloring.greedy] is checked
    against. *)

val greedy : Cgraph.Graph.t -> int array
(** Largest-degree-first greedy colouring, ties by lower id. *)
