(** The reference CSR builder [Cgraph.Graph.of_pairs] is checked
    against. *)

type t = {
  off : int array;  (** n + 1 row offsets *)
  nbr : int array;  (** 2m neighbours, ascending within each row *)
  rev : int array;  (** 2m: slot (i, j) -> slot (j, i) *)
  edges : (int * int) list;  (** canonical (u, v), u < v, sorted *)
}

val of_edges : ctx:string -> n:int -> (int * int) array -> t
(** The CSR arrays of the graph on [n] vertices with these edges:
    duplicates (in either orientation) dropped, self-loops and
    out-of-range endpoints rejected with [Invalid_argument] messages
    prefixed by [ctx]. The input is not modified. *)

val topology_edges : Cgraph.Topology.spec -> (int * int) array
(** The edge list each [Cgraph.Topology] generator produced as tuples
    before it wrote flat pairs: the same edges in the same orientation,
    the random generators on the same draws. Assumes a valid spec. *)
