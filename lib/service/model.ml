open Netembed_graph
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Ledger = Netembed_ledger.Ledger

type t = {
  graph : Graph.t;
  mutable rev : int;
  reserved_set : (Graph.node, unit) Hashtbl.t;
  ledger : Ledger.t;
  locks : (Graph.node, int) Hashtbl.t;  (* reservation -> ledger allocation *)
  (* The residual host: [residual] is the published, frozen version;
     changes since its publication are written into [draft], a private
     version derived from it on the first change, which the next read
     freezes and publishes. *)
  mutable residual : Graph.t;
  mutable draft : Graph.t option;
}

let create g =
  let graph = Graph.copy g in
  (* Every node carries an explicit reservation flag so the standard
     node constraint ["!rSource.reserved"] is total. *)
  Graph.iter_nodes
    (fun v ->
      if not (Attrs.mem "reserved" (Graph.node_attrs graph v)) then
        Graph.set_node_attrs graph v
          (Attrs.add "reserved" (Value.Bool false) (Graph.node_attrs graph v)))
    graph;
  (* Build the pair index once, here: every residual version shares
     it, and concurrent searches then only read it. *)
  if Graph.node_count graph > 0 then ignore (Graph.edges_between graph 0 0);
  let ledger = Ledger.of_graph graph in
  let residual = Graph.derive graph in
  Graph.iter_nodes
    (fun v ->
      Graph.set_node_attrs residual v
        (Ledger.stamp ledger (Ledger.Node v) (Graph.node_attrs graph v)))
    graph;
  Graph.iter_edges
    (fun e _ _ ->
      Graph.set_edge_attrs residual e
        (Ledger.stamp ledger (Ledger.Edge e) (Graph.edge_attrs graph e)))
    graph;
  Graph.freeze residual;
  {
    graph;
    rev = 0;
    reserved_set = Hashtbl.create 16;
    ledger;
    locks = Hashtbl.create 16;
    residual;
    draft = None;
  }

let of_graphml_file path = create (Netembed_graphml.Graphml.read_file path)
let snapshot t = t.graph
let revision t = t.rev
let ledger t = t.ledger

let residual_snapshot t =
  (match t.draft with
  | None -> ()
  | Some g ->
      Graph.freeze g;
      t.residual <- g;
      t.draft <- None);
  t.residual

let draft t =
  match t.draft with
  | Some g -> g
  | None ->
      let g = Graph.derive t.residual in
      t.draft <- Some g;
      g

(* Restamp one element of the draft from the base graph and the ledger:
   its residual view is [Ledger.stamp] over its current base attributes,
   exactly what [Ledger.residual_graph ~base] computes for it. *)
let restamp t target =
  let g = draft t in
  match target with
  | Ledger.Node v ->
      Graph.set_node_attrs g v (Ledger.stamp t.ledger target (Graph.node_attrs t.graph v))
  | Ledger.Edge e ->
      Graph.set_edge_attrs g e (Ledger.stamp t.ledger target (Graph.edge_attrs t.graph e))

let restamp_charge t charge =
  List.iter (fun (l : Ledger.line) -> restamp t l.Ledger.target) charge

let update_edge_attrs t e fresh =
  Graph.set_edge_attrs t.graph e (Attrs.union (Graph.edge_attrs t.graph e) fresh);
  restamp t (Ledger.Edge e);
  t.rev <- t.rev + 1

let update_node_attrs t v fresh =
  Graph.set_node_attrs t.graph v (Attrs.union (Graph.node_attrs t.graph v) fresh);
  restamp t (Ledger.Node v);
  t.rev <- t.rev + 1

exception Conflict of Graph.node

let set_reserved_attr t v flag =
  Graph.set_node_attrs t.graph v
    (Attrs.add "reserved" (Value.Bool flag) (Graph.node_attrs t.graph v));
  restamp t (Ledger.Node v)

let reserve t nodes =
  (* The pre-scan must catch both conflicts with prior reservations and
     a node appearing twice in this very call — otherwise a duplicated
     node double-books silently. *)
  let seen = Hashtbl.create (List.length nodes) in
  List.iter
    (fun v ->
      if Hashtbl.mem t.reserved_set v || Hashtbl.mem seen v then raise (Conflict v);
      Hashtbl.replace seen v ())
    nodes;
  List.iter
    (fun v ->
      Hashtbl.replace t.reserved_set v ();
      (* A boolean reservation is the degenerate full-capacity charge:
         the node's entire residual is debited in the ledger. *)
      Hashtbl.replace t.locks v (Ledger.lock t.ledger v);
      set_reserved_attr t v true)
    nodes;
  if nodes <> [] then t.rev <- t.rev + 1

let release t nodes =
  List.iter
    (fun v ->
      if Hashtbl.mem t.reserved_set v then begin
        Hashtbl.remove t.reserved_set v;
        (match Hashtbl.find_opt t.locks v with
        | Some id ->
            ignore (Ledger.release t.ledger id);
            Hashtbl.remove t.locks v
        | None -> ());
        set_reserved_attr t v false
      end)
    nodes;
  if nodes <> [] then t.rev <- t.rev + 1

let reserved t = List.sort compare (Hashtbl.fold (fun v () acc -> v :: acc) t.reserved_set [])
let is_reserved t v = Hashtbl.mem t.reserved_set v

let charge_mapping t ~query mapping =
  match Ledger.charge_of_mapping t.ledger ~query mapping with
  | Error m -> Error m
  | Ok charge -> (
      match Ledger.try_commit t.ledger charge with
      | Error f -> Error (Ledger.failure_to_string f)
      | Ok id ->
          restamp_charge t charge;
          t.rev <- t.rev + 1;
          Ok id)

let release_charge t id =
  match Ledger.allocation_charge t.ledger id with
  | None -> false
  | Some charge ->
      ignore (Ledger.release t.ledger id);
      restamp_charge t charge;
      t.rev <- t.rev + 1;
      true

let migrate_charge t id ~query mapping =
  match Ledger.allocation_charge t.ledger id with
  | None -> Error (Printf.sprintf "allocation %d is not live" id)
  | Some old -> (
      match Ledger.charge_of_mapping t.ledger ~query mapping with
      | Error m -> Error m
      | Ok charge -> (
          let result = Ledger.migrate t.ledger id charge in
          (* A rolled-back migration restores the old charge, but by a
             release and a re-commit: restamp both footprints either
             way, so the view follows the ledger's figures exactly. *)
          restamp_charge t old;
          restamp_charge t charge;
          match result with
          | Error f -> Error (Ledger.failure_to_string f)
          | Ok id' ->
              t.rev <- t.rev + 1;
              Ok id'))
