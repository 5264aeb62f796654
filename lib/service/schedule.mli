(** Embedding with temporal resource allocation — the paper's
    scheduling follow-up: "when used in a real application, resources
    once assigned would not be available for some amount of time.  In
    such settings, the embedding problem must be tightly integrated with
    the scheduling problem — to find a window of time (or the closest
    window of time) in which some feasible embedding is available"
    (pursued in the snBench sensor-network framework).

    A {!t} tracks time-bounded leases on hosting nodes.  {!earliest}
    scans candidate start times (now plus every lease expiry — between
    expiries the available set is constant, so these are the only
    decision points) and returns the first window in which the query
    embeds on the then-free nodes.

    When created over a resource ledger, every {!book} also takes the
    degenerate full-capacity charge on the leased hosts
    ({!Netembed_ledger.Ledger.lock}), and the internal gc — run on each
    {!earliest} and {!release_expired} — credits those charges back the
    moment a lease expires, so fractional tenants charged against the
    same ledger see scheduled capacity come and go.  Pass a ledger of
    the scheduler's own, not a {!Model}'s: the model's residual host
    follows only the changes made through the model
    ({!Model.residual_snapshot}). *)

open Netembed_graph

type t

val create : ?ledger:Netembed_ledger.Ledger.t -> Graph.t -> t
(** A scheduler over the hosting network with no leases.  With
    [?ledger], booked leases hold full-capacity charges on their hosts
    until expiry. *)

type lease = {
  hosts : Graph.node list;
  start : float;
  finish : float;
  charges : int list;
      (** Ledger allocation ids held for the window; [[]] without a
          ledger. *)
}

val leases : t -> lease list
(** Active leases, by start time. *)

val busy_at : t -> float -> Graph.node list
(** Nodes under lease at the given instant. *)

type placement = {
  mapping : Netembed_core.Mapping.t;
  start : float;
  finish : float;
}

val earliest :
  ?algorithm:Netembed_core.Engine.algorithm ->
  ?timeout:float ->
  t ->
  now:float ->
  duration:float ->
  query:Graph.t ->
  Netembed_expr.Ast.t ->
  (placement, string) result
(** Earliest start [>= now] at which the query embeds for [duration]
    seconds using only nodes free for the whole window.  Leases already
    over at [now] are gc'd first (releasing their ledger charges).  A
    lease ending exactly at a candidate start does not block it —
    windows are half-open [\[start, finish)].  The returned placement is
    {e not} booked; call {!book} to commit it.  [Error] when no
    feasible window exists even with every lease expired, or on engine
    errors. *)

val book : t -> placement -> unit
(** Register the placement's hosts as leased for its window, charging
    their full capacity in the ledger when one is attached. *)

val release_expired : t -> now:float -> int
(** Run the gc: drop leases whose window ended at or before [now],
    crediting their ledger charges back; returns how many. *)
