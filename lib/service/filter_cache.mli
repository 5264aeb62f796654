(** Cross-request filter cache.

    Building the filter matrix is the dominant sequential phase of an
    ECF/RWB request (the Amdahl bottleneck called out in
    {!Netembed_parallel}); repeated or templated queries — the service
    pattern the paper's interactive scenario implies — rebuild an
    identical matrix every time.  This cache keys built filters by the
    {b query signature} alone, and each entry records the {b host
    version} its filter matches: the model's residual host is an
    immutable, versioned graph ({!Model.residual_snapshot}), so a
    version is identified by physical equality.  Each entry also carries
    the problem's compiled-constraint bundle
    ({!Netembed_core.Problem.compiled}), so a warm submit skips bytecode
    compilation as well — observable as a flat
    [netembed_expr_compiles_total] counter across repeats.

    Correctness rests on two facts:

    - the {b query signature} is an exact canonical serialization of
      the query topology, all node/edge attribute values and both
      constraint texts (see {!signature}) — every query-side input of
      the build.  Exact-string equality means a collision can never
      hand a request somebody else's filter; worst case is a spurious
      miss, which only costs the build;
    - the {b host side} is the entry's version.  A hit at the same
      version uses the filter as is.  A hit at a newer version
      ({!Netembed_core.Filter.repair}) re-judges just the host elements
      whose attributes differ between the two versions, which yields
      exactly the filter a fresh build would; the service then stores
      the repaired filter under the new version, replacing the old
      entry (an {!invalidations}).

    So capacity churn — every ledger commit makes a new host version —
    costs a repair proportional to what changed, not a rebuild.  Each
    entry pins one host version's attribute tables.  Beyond capacity,
    the least-recently-used entry is evicted.

    Not thread-safe: the service guards it with its cache lock. *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 32 entries.
    @raise Invalid_argument when [capacity < 1]. *)

val signature :
  query:Netembed_graph.Graph.t ->
  constraint_text:string ->
  node_constraint_text:string option ->
  string
(** Canonical serialization of the query-side inputs of a filter
    build.  Stable across processes (no hashing, no addresses). *)

type entry = {
  host : Netembed_graph.Graph.t;  (** the host version [filter] matches *)
  filter : Netembed_core.Filter.t;
  compiled : Netembed_core.Problem.compiled;
}

val find : t -> signature:string -> entry option
(** Cache lookup; a hit refreshes the entry's recency.  The caller
    compares [host] with its own host version: the same version uses
    [filter] as is, another one repairs it
    ({!Netembed_core.Filter.repair}).  [compiled] is fed back into
    {!Netembed_core.Problem.make} via [?compiled] either way. *)

val add : t -> signature:string -> entry -> unit
(** Insert an entry, evicting LRU entries as needed.  When the
    signature is already cached at another host version, the entry is
    replaced and the replacement counted in {!invalidations}; at the
    same version the existing entry is kept (its recency refreshed). *)

val length : t -> int
val capacity : t -> int

val evictions : t -> int
(** Entries dropped to capacity pressure (LRU), cumulative. *)

val invalidations : t -> int
(** Entries replaced by a filter for a newer host version (a repair),
    cumulative. *)
