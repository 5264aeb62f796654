(** Attributed graphs: the common representation of hosting and query
    networks (paper, section IV: [R = <V,E>], [Q = <V,E>] plus a
    characterization of nodes and links).

    Nodes and edges are dense integer handles ([0 .. count-1]), which the
    embedding algorithms exploit for array- and bitset-indexed state.
    Graphs are mutable during construction (generators add nodes and
    edges incrementally) and treated as immutable afterwards.

    {b Versions.}  {!derive} makes a new version of a graph in O(1): it
    shares the topology (endpoints, adjacency, the pair index) and,
    copy-on-write, the attribute tables — an attribute write on either
    side copies the chunk of the table it touches, so two versions
    never see each other's writes.  {!freeze} makes a version
    read-only, which is how a version is published to concurrent
    readers: the network model ({!Netembed_service.Model}) hands out
    frozen versions of its residual host, and
    {!changed_nodes}/{!changed_edges} find the elements whose
    attributes differ between two versions by physical comparison.  A topology shared by two versions cannot grow:
    {!add_node} and {!add_edge} raise on it.

    Undirected graphs store each edge once; adjacency is maintained from
    both endpoints.  Self-loops are rejected; parallel edges are allowed
    (a hosting network may expose several measured links between two
    sites) but generators in this repository never produce them. *)

type kind = Directed | Undirected

type node = int
type edge = int
type t

(** {1 Construction} *)

val create : ?kind:kind -> ?name:string -> unit -> t
(** A fresh empty graph; [kind] defaults to [Undirected]. *)

val add_node : t -> Netembed_attr.Attrs.t -> node
(** @raise Invalid_argument on a frozen graph or one whose topology is
    shared with another version ({!derive}). *)

val add_edge : t -> node -> node -> Netembed_attr.Attrs.t -> edge
(** @raise Invalid_argument on self-loops, unknown endpoints, a frozen
    graph or a shared topology (as {!add_node}). *)

val set_node_attrs : t -> node -> Netembed_attr.Attrs.t -> unit
(** Replace one node's attribute table.  Attribute tables are stored in
    chunks of 256 elements; on a version that still shares a chunk, the
    write copies that chunk (and, on the first write, the chunk index),
    so a version costs O(elements / 256 + 256 * chunks written).
    @raise Invalid_argument on a frozen graph. *)

val set_edge_attrs : t -> edge -> Netembed_attr.Attrs.t -> unit
(** As {!set_node_attrs}, for edges. *)

val set_graph_attrs : t -> Netembed_attr.Attrs.t -> unit
(** @raise Invalid_argument on a frozen graph. *)

(** {1 Inspection} *)

val kind : t -> kind
val name : t -> string
val node_count : t -> int
val edge_count : t -> int

val node_attrs : t -> node -> Netembed_attr.Attrs.t
val edge_attrs : t -> edge -> Netembed_attr.Attrs.t
val graph_attrs : t -> Netembed_attr.Attrs.t

val endpoints : t -> edge -> node * node
(** Source and target in insertion orientation (meaningful for directed
    graphs; arbitrary but stable for undirected ones). *)

val edge_source : t -> edge -> node
(** [fst (endpoints t e)] without allocating the pair — for per-pair
    hot paths (the constraint evaluator resolves a residual's
    orientation on every evaluation). *)

val succ : t -> node -> (node * edge) list
(** Out-neighbours with the connecting edge.  For undirected graphs this
    is the full neighbourhood. *)

val pred : t -> node -> (node * edge) list
(** In-neighbours.  Equal to {!succ} for undirected graphs. *)

val degree : t -> node -> int
(** [List.length (succ t v)]; for undirected graphs, the ordinary
    degree. *)

val out_degree : t -> node -> int
val in_degree : t -> node -> int

val find_edge : t -> node -> node -> edge option
(** First edge from [u] to [v] ([u]–[v] in either stored orientation for
    undirected graphs). *)

val edges_between : t -> node -> node -> edge list
(** All edges from [u] to [v], via a lazily-built hash index (O(1)
    amortized; the index is rebuilt after any [add_edge]). *)

val mem_edge : t -> node -> node -> bool

val iter_nodes : (node -> unit) -> t -> unit
val iter_edges : (edge -> node -> node -> unit) -> t -> unit
val fold_nodes : (node -> 'a -> 'a) -> t -> 'a -> 'a
val fold_edges : (edge -> node -> node -> 'a -> 'a) -> t -> 'a -> 'a
val nodes : t -> node array
val edges : t -> (edge * node * node) array

(** {1 Derived graphs} *)

val copy : t -> t
(** A deep copy: fresh topology and attribute tables. *)

val induced_subgraph : t -> node array -> t * node array
(** [induced_subgraph g sel] is the subgraph on the nodes of [sel]
    (attributes shared) together with the array mapping new node ids to
    the original ids ([sel] itself, re-indexed).  Edges between selected
    nodes are all retained.
    @raise Invalid_argument if [sel] contains duplicates. *)

val spanning_subgraph : t -> node array -> edge array -> t * node array
(** Like {!induced_subgraph} but keeping only the listed edges (which
    must connect selected nodes). *)

val density : t -> float
(** [|E| / (|V| choose 2)] for undirected graphs, [|E| / (|V|·(|V|-1))]
    for directed ones; 0 for graphs with fewer than two nodes. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line ["name: N nodes, M edges (undirected)"] summary. *)

(** {1 Versions} *)

val derive : t -> t
(** A new, writable version of [t] in O(1), sharing its topology and
    (copy-on-write) its attribute tables.  Afterwards neither [t] nor the
    new version can grow.  Deriving never writes to a frozen [t], so
    concurrent readers of a frozen version may derive from it. *)

val freeze : t -> unit
(** Make the graph read-only: every later [set_*] or [add_*] raises.
    Irreversible. *)

val changed_nodes : since:t -> t -> node list
(** The nodes, ascending, whose attribute table in the second version
    is not physically equal to the one in [since].  Chunks the two
    versions share are skipped without looking at their elements.
    @raise Invalid_argument unless the versions share their topology. *)

val changed_edges : since:t -> t -> edge list
(** As {!changed_nodes}, for edges. *)
