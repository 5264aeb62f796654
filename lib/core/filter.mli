(** The constraint filter matrix of ECF/RWB (paper, section V-A).

    During the first stage, "the constraint expression is applied to
    each possible pair of virtual and real edges", producing candidate
    mappings per edge.  The sparse 3-D matrix [F] has cells
    [(v, r, vs)] holding the candidate set for [vs] when [v] is mapped
    onto [r].

    Representation: cells are keyed by the oriented query pair [(v,vs)]
    and the host node [r], and hold a {!Netembed_bitset.Bitset.t} over
    the host-node universe, so the search core intersects them in
    O(words) ({!Domain_store}).  Sorted-array views of the same cells
    are materialized lazily for the legacy array path (differential
    tests and the representation-ablation bench).  The negative filter
    F̄ of the paper is implicit: candidate sets are intersected, so
    anything absent from [F] is excluded (equivalent to subtracting the
    union of F̄ for undirected problems; for directed problems both
    lookup directions of each tested orientation are stored).

    The matrix also precomputes per-query-node candidate sets (the
    paper's expression (1), strengthened with the node-level filters of
    {!Problem.node_ok}) and the Lemma-1 search order [LS]: query nodes
    ascending by candidate count.

    Under the cells the filter keeps what they are derived from: per
    query node, the host nodes passing the node filter, and per (query
    edge, orientation), the host edges whose constraint verdict is
    accept.  That is what lets {!repair} move a filter to a new version
    of the host by re-judging only the elements that changed. *)

open Netembed_graph

type t

type ordering =
  | Connected_lemma1
      (** default: Lemma-1 seed, then greedy most-links-to-prefix *)
  | Lemma1  (** the paper's literal reading: ascending candidate count *)
  | Input_order  (** no reordering — the ablation baseline *)

val build :
  ?ordering:ordering ->
  ?prefilter:bool ->
  ?blame:Netembed_explain.Explain.Blame.t ->
  Problem.t ->
  t
(** [prefilter] (default [true]) short-circuits the per-pair constraint
    evaluations through {!Prefilter}: atoms extracted from each residual
    by {!Netembed_expr.Bounds} are swept over pre-sorted host attribute
    columns, so pairs a single attribute comparison already rejects (or,
    for fully-extracted constraints, accepts) never reach the evaluator.
    The resulting matrix is identical either way — only the number of
    constraint evaluations changes, which is what the bench ablation
    reports.  Per-query-node [node_ok] verdicts are likewise precomputed
    once over the host universe instead of per incident host edge.

    [blame], when given, receives one elimination per (query node, host)
    pair excluded from the node's expression-(1) candidate set,
    attributed to the first filter stage that rejected it (degree
    filter, node constraint, then the incident query edge with no
    compatible host edge).  Diagnostic runs only: the attribution pass
    re-evaluates node constraints, so constraint-evaluation counts are
    higher than an unblamed build. *)

val repair : t -> since:Graph.t -> Problem.t -> t
(** [repair f ~since p] is the filter of [p], derived from [f] without a
    rebuild.  Contract: [f] was built (or repaired) for a problem over
    the host version [since] with the same query, constraints, degree
    filter and evaluator as [p], and [p]'s host is a version of the same
    topology ({!Graph.derive}).  The result is then equal to
    [build ~ordering p] ({!equal}: same cells, candidates and order, with
    [ordering] the one [f] was built with), so searches over it return
    exactly what they would over a fresh build.

    Only host elements whose attribute table is not physically equal
    between [since] and [p]'s host are looked at
    ({!Graph.changed_nodes}): changed nodes get their node filter
    re-tested, host edges that changed — or that touch a changed node
    whose filter verdict flipped, or any changed node when the
    constraint reads [rSource]/[rTarget] — are re-judged by evaluating
    the constraint, and only matrix rows at the endpoints of a verdict
    that flipped are recomputed.  [f] is not modified: unchanged cells
    and sets are shared with it (both are read-only), so [f] stays
    valid for [since].  When nothing changed, [f] itself is returned.
    No blame is recorded (repair is the service's cache path).
    @raise Invalid_argument when [p]'s host or query has a different
    node count, or its host is not a version of [since]'s topology. *)

val equal : t -> t -> bool
(** Structural equality of everything a search or a later {!repair}
    reads: cells, node filters, accepted host edges, node candidates,
    order and cell count.  Not the lazily built array views. *)

val builds_total : unit -> int
(** Filter builds since program start, across all domains — a hit or a
    repair in the service's cache leaves it flat. *)

val universe : t -> int
(** Host-node universe size — the width of every cell bitset. *)

val cell_bits :
  t -> q_assigned:Graph.node -> r_assigned:Graph.node -> q_next:Graph.node ->
  Netembed_bitset.Bitset.t option
(** The cell [F[q_assigned, r_assigned, q_next]] as a bitset over the
    host universe, or [None] when no host edge qualifies.  The returned
    set is owned by the filter and must not be mutated — searchers copy
    it into {!Domain_store} scratch before intersecting. *)

val cell_bits_exn :
  t -> q_assigned:Graph.node -> r_assigned:Graph.node -> q_next:Graph.node ->
  Netembed_bitset.Bitset.t
(** Like {!cell_bits} but raising [Not_found] for a missing cell instead
    of boxing an option — the allocation-free lookup the search hot loop
    uses.  Same ownership rule: the returned set is read-only. *)

val node_candidates_bits : t -> Graph.node -> Netembed_bitset.Bitset.t
(** Bitset form of {!node_candidates}; owned by the filter, read-only. *)

val candidates_from :
  t -> q_assigned:Graph.node -> r_assigned:Graph.node -> q_next:Graph.node ->
  int array
(** [candidates_from f ~q_assigned ~r_assigned ~q_next] is the cell
    [F[q_assigned, r_assigned, q_next]]: sorted host candidates for
    [q_next] given that assignment.  Empty array when no host edge
    qualifies.  Meaningful only when the query links [q_assigned] to
    [q_next].  This is the legacy array view of {!cell_bits},
    materialized (and cached) on first access; the memoization is not
    thread-safe, so the array path must stay single-domain. *)

val node_candidates : t -> Graph.node -> int array
(** Sorted host candidates for a query node irrespective of other
    assignments (expression (1) ∩ node filters). *)

val order : t -> Graph.node array
(** The search order [LS].  Lemma 1 calls for ascending candidate
    count; since expression (2) can only prune a node through edges
    into the already-assigned prefix, the order is additionally kept
    connected: seed = fewest candidates, then greedily the node with
    most edges into the prefix (ties: fewest candidates, then highest
    degree), reseeding by candidate count across query components. *)

val cell_count : t -> int
(** Number of non-empty cells — the space-cost metric that motivates
    LNS. *)
