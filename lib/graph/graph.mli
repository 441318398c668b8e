(** Undirected conflict graphs.

    A dining instance is an undirected graph [C = (Pi, E)] where vertices
    are processes and an edge [(i, j)] means that [i] and [j] share a fork
    (their actions conflict). Processes are numbered [0 .. n-1]. *)

type pid = int

type t

val of_pairs : n:int -> int array -> t
(** [of_pairs ~n [|u0; v0; u1; v1; ...|]] builds a graph on [n]
    vertices from a flat array of edge endpoints, two per edge — the
    constructor the topology generators use. Self-loops are rejected;
    duplicate edges (in either orientation) are deduplicated. Raises
    [Invalid_argument] on out-of-range endpoints, an odd array length
    or [n <= 0].

    {b Consumes its input}: the array is reused as scratch space for
    the sorted edge keys, and its contents afterwards are unspecified.
    The graph's own arrays are the only allocation. *)

val of_edges : n:int -> (pid * pid) list -> t
(** Same as {!of_pairs} from an edge list, for literal small graphs.
    The list is not modified. *)

val n : t -> int
(** Number of vertices. *)

val edges : t -> (pid * pid) list
(** Edge list, each edge once with the smaller endpoint first, sorted.
    Built fresh on each call; prefer {!iter_edges} on hot paths. *)

val edge_count : t -> int

val neighbors : t -> pid -> pid array
(** Sorted array of neighbors of a vertex, as a fresh copy. Prefer
    {!csr_offsets}/{!csr_targets} where the copy matters. *)

val degree : t -> pid -> int
val max_degree : t -> int
val is_edge : t -> pid -> pid -> bool
val iter_edges : t -> (pid -> pid -> unit) -> unit
(** [iter_edges t f] calls [f u v] once per edge, [u < v], in edge-id
    order (the order of {!edges}). *)

(** {2 Dense indices}

    The graph is stored in compressed sparse row form. Position [s] of
    the flat neighbor array is the {e directed slot} for the ordered
    pair [(i, nbr.(s))] where [i] owns the row containing [s]; slots
    give every per-directed-pair quantity in the system (FIFO floors,
    link counters, per-edge protocol bits) a dense int index, replacing
    hashed pair keys on hot paths. An undirected edge [(u, v)], [u < v],
    has two slots: [(u, v)] in [u]'s row, the lower-numbered of the
    two, and [(v, u)]. Taken in slot order, the slots whose target is
    larger than their row's owner list the edges in canonical sorted
    order.

    Storage is 4 words per edge (two arrays over the [2m] slots:
    targets and reverses) plus [n + 1] row offsets. *)

val dir_count : t -> int
(** Number of directed slots, [2 * edge_count]. *)

val dir_index : t -> pid -> pid -> int
(** [dir_index t i j] is the directed slot of the ordered pair [(i, j)].
    O(log degree), allocation-free. Raises [Invalid_argument] if [i]
    and [j] are not neighbors. *)

val dir_index_opt : t -> pid -> pid -> int
(** Like {!dir_index} but returns [-1] when [i] and [j] are not
    neighbors (including out-of-range vertices) instead of raising.
    Allocation-free, for hot paths that validate edges themselves. *)

val slot_dst : t -> int -> pid
(** Destination of a directed slot (the source owns the CSR row). *)

val slot_src : t -> int -> pid
(** Source of a directed slot: the vertex whose CSR row holds it. *)

val rev_slots : t -> int array
(** Reverse slots, length [dir_count]: entry [s] for the slot (i, j) is
    the slot (j, i), the other end of the same edge. Built once with the
    graph. Owned by the graph; do not mutate. *)

val csr_offsets : t -> int array
(** Row offsets, length [n + 1]: vertex [i]'s slots are
    [off.(i) .. off.(i+1) - 1]. Owned by the graph; do not mutate. *)

val csr_targets : t -> pid array
(** Flat neighbor array, length [dir_count], ascending within each row.
    Owned by the graph; do not mutate. *)

val is_connected : t -> bool
(** Whether every vertex is reachable from vertex 0 (true for n = 1). *)

val distances_from : t -> pid -> int array
(** BFS hop distances from the given vertex; unreachable vertices get
    [n]. Used e.g. to measure how far from a crash site an effect
    (starvation, delay) spreads. *)

val to_dot :
  ?name:string ->
  ?vertex_label:(pid -> string) ->
  ?vertex_color:(pid -> string option) ->
  t ->
  string
(** Graphviz (dot) rendering of the conflict graph. [vertex_label]
    defaults to the pid; [vertex_color] (an X11 color name or RGB string)
    fills the vertex when given — used by the CLI to visualise colorings
    and crash states. *)
