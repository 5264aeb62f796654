module Attrs = Netembed_attr.Attrs

type kind = Directed | Undirected
type node = int
type edge = int

(* The topology — everything but the attribute tables.  Versions made
   by [derive] share one topology record (and with it the lazily built
   pair index); once shared, growing it would change every sharer, so
   [add_node]/[add_edge] refuse. *)
type topo = {
  kind : kind;
  graph_name : string;
  edge_src : int Vec.t;
  edge_dst : int Vec.t;
  (* Adjacency: out.(v) = (neighbour, edge) list in reverse insertion
     order; undirected graphs record each edge in both lists. *)
  out_adj : (int * int) list Vec.t;
  in_adj : (int * int) list Vec.t;
  (* Lazy (u, v) -> edge-list index for O(1) amortized lookup; built on
     first use and invalidated by later growth. *)
  mutable pair_index : (int * int, int list) Hashtbl.t option;
  mutable shared : bool;
}

(* Attribute tables are chunked arrays, copy-on-write per chunk: a
   version that writes one element copies the spine and that element's
   chunk, and shares every other chunk with the versions it was derived
   from or to.  [spine_owned] says the spine (and [writable]) belongs to
   this table alone; [writable.(c)] that chunk [c] does too. *)
module Table = struct
  let bits = 8
  let chunk = 1 lsl bits
  let mask = chunk - 1

  type t = {
    mutable chunks : Attrs.t array array;
    mutable writable : bool array;
    mutable spine_owned : bool;
    mutable len : int;
  }

  let create () = { chunks = [||]; writable = [||]; spine_owned = true; len = 0 }
  let get t i = t.chunks.(i lsr bits).(i land mask)

  (* Construction only: the table is never shared while it grows. *)
  let push t x =
    let c = t.len lsr bits in
    if c >= Array.length t.chunks then begin
      let n = max 4 (2 * Array.length t.chunks) in
      let grow a fill = Array.append a (Array.make (n - Array.length a) fill) in
      t.chunks <- grow t.chunks [||];
      t.writable <- grow t.writable false
    end;
    if not t.writable.(c) then begin
      t.chunks.(c) <- Array.make chunk Attrs.empty;
      t.writable.(c) <- true
    end;
    t.chunks.(c).(t.len land mask) <- x;
    t.len <- t.len + 1

  let set t i x =
    if not t.spine_owned then begin
      t.chunks <- Array.copy t.chunks;
      t.writable <- Array.make (Array.length t.chunks) false;
      t.spine_owned <- true
    end;
    let c = i lsr bits in
    if not t.writable.(c) then begin
      t.chunks.(c) <- Array.copy t.chunks.(c);
      t.writable.(c) <- true
    end;
    t.chunks.(c).(i land mask) <- x

  (* A new table reading the same chunks; neither may now write them in
     place.  [keep_parent] leaves the parent's flags alone (a frozen
     parent never writes, and may be read concurrently). *)
  let share ~keep_parent t =
    if not keep_parent then t.spine_owned <- false;
    { chunks = t.chunks; writable = [||]; spine_owned = false; len = t.len }

  (* Elements whose entries differ physically, ascending. *)
  let changed a b =
    let acc = ref [] in
    if a.chunks != b.chunks then
      for c = ((b.len + mask) lsr bits) - 1 downto 0 do
        let ca = a.chunks.(c) and cb = b.chunks.(c) in
        if ca != cb then
          for j = min mask (b.len - 1 - (c lsl bits)) downto 0 do
            if ca.(j) != cb.(j) then acc := ((c lsl bits) + j) :: !acc
          done
      done;
    !acc
end

type t = {
  topo : topo;
  mutable graph_attrs : Attrs.t;
  node_attrs : Table.t;
  edge_attrs : Table.t;
  mutable frozen : bool;
}

let create ?(kind = Undirected) ?(name = "") () =
  {
    topo =
      {
        kind;
        graph_name = name;
        edge_src = Vec.create ~dummy:(-1);
        edge_dst = Vec.create ~dummy:(-1);
        out_adj = Vec.create ~dummy:[];
        in_adj = Vec.create ~dummy:[];
        pair_index = None;
        shared = false;
      };
    graph_attrs = Attrs.empty;
    node_attrs = Table.create ();
    edge_attrs = Table.create ();
    frozen = false;
  }

let kind t = t.topo.kind
let name t = t.topo.graph_name
let node_count t = t.node_attrs.Table.len
let edge_count t = t.edge_attrs.Table.len

let check_growable t ctx =
  if t.frozen then invalid_arg (ctx ^ ": frozen graph");
  if t.topo.shared then invalid_arg (ctx ^ ": topology shared with another graph")

let add_node t attrs =
  check_growable t "Graph.add_node";
  let id = node_count t in
  Table.push t.node_attrs attrs;
  Vec.push t.topo.out_adj [];
  Vec.push t.topo.in_adj [];
  id

let check_node t v ctx =
  if v < 0 || v >= node_count t then invalid_arg (ctx ^ ": unknown node")

let add_edge t u v attrs =
  check_growable t "Graph.add_edge";
  check_node t u "Graph.add_edge";
  check_node t v "Graph.add_edge";
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  let g = t.topo in
  g.pair_index <- None;
  let id = edge_count t in
  Table.push t.edge_attrs attrs;
  Vec.push g.edge_src u;
  Vec.push g.edge_dst v;
  Vec.set g.out_adj u ((v, id) :: Vec.get g.out_adj u);
  Vec.set g.in_adj v ((u, id) :: Vec.get g.in_adj v);
  (match g.kind with
  | Undirected ->
      Vec.set g.out_adj v ((u, id) :: Vec.get g.out_adj v);
      Vec.set g.in_adj u ((v, id) :: Vec.get g.in_adj u)
  | Directed -> ());
  id

let check_writable t ctx = if t.frozen then invalid_arg (ctx ^ ": frozen graph")

let set_node_attrs t v attrs =
  check_writable t "Graph.set_node_attrs";
  check_node t v "Graph.set_node_attrs";
  Table.set t.node_attrs v attrs

let set_edge_attrs t e attrs =
  check_writable t "Graph.set_edge_attrs";
  if e < 0 || e >= edge_count t then invalid_arg "Graph.set_edge_attrs: unknown edge";
  Table.set t.edge_attrs e attrs

let set_graph_attrs t attrs =
  check_writable t "Graph.set_graph_attrs";
  t.graph_attrs <- attrs

let node_attrs t v =
  check_node t v "Graph.node_attrs";
  Table.get t.node_attrs v

let edge_attrs t e =
  if e < 0 || e >= edge_count t then invalid_arg "Graph.edge_attrs: unknown edge";
  Table.get t.edge_attrs e

let graph_attrs t = t.graph_attrs

let endpoints t e =
  if e < 0 || e >= edge_count t then invalid_arg "Graph.endpoints: unknown edge";
  (Vec.get t.topo.edge_src e, Vec.get t.topo.edge_dst e)

let edge_source t e =
  if e < 0 || e >= edge_count t then invalid_arg "Graph.edge_source: unknown edge";
  Vec.get t.topo.edge_src e

let succ t v =
  check_node t v "Graph.succ";
  Vec.get t.topo.out_adj v

let pred t v =
  check_node t v "Graph.pred";
  Vec.get t.topo.in_adj v

let degree t v = List.length (succ t v)
let out_degree = degree

let in_degree t v =
  check_node t v "Graph.in_degree";
  List.length (Vec.get t.topo.in_adj v)

let pair_index t =
  let g = t.topo in
  match g.pair_index with
  | Some idx -> idx
  | None ->
      let idx = Hashtbl.create (max 16 (2 * edge_count t)) in
      let record u v e =
        Hashtbl.replace idx (u, v)
          (e :: Option.value ~default:[] (Hashtbl.find_opt idx (u, v)))
      in
      for e = edge_count t - 1 downto 0 do
        let u = Vec.get g.edge_src e and v = Vec.get g.edge_dst e in
        record u v e;
        match g.kind with Undirected -> record v u e | Directed -> ()
      done;
      g.pair_index <- Some idx;
      idx

let edges_between t u v =
  check_node t u "Graph.edges_between";
  check_node t v "Graph.edges_between";
  Option.value ~default:[] (Hashtbl.find_opt (pair_index t) (u, v))

let find_edge t u v =
  match edges_between t u v with [] -> None | e :: _ -> Some e

let mem_edge t u v = Option.is_some (find_edge t u v)

let iter_nodes f t =
  for v = 0 to node_count t - 1 do
    f v
  done

let iter_edges f t =
  for e = 0 to edge_count t - 1 do
    f e (Vec.get t.topo.edge_src e) (Vec.get t.topo.edge_dst e)
  done

let fold_nodes f t init =
  let acc = ref init in
  iter_nodes (fun v -> acc := f v !acc) t;
  !acc

let fold_edges f t init =
  let acc = ref init in
  iter_edges (fun e u v -> acc := f e u v !acc) t;
  !acc

let nodes t = Array.init (node_count t) (fun i -> i)

let edges t =
  Array.init (edge_count t) (fun e ->
      (e, Vec.get t.topo.edge_src e, Vec.get t.topo.edge_dst e))

let copy t =
  let g = create ~kind:(kind t) ~name:(name t) () in
  g.graph_attrs <- t.graph_attrs;
  iter_nodes (fun v -> ignore (add_node g (node_attrs t v))) t;
  iter_edges (fun e u v -> ignore (add_edge g u v (edge_attrs t e))) t;
  g

(* ------------------------------------------------------------------ *)
(* Versions                                                            *)
(* ------------------------------------------------------------------ *)

let derive t =
  if not t.topo.shared then t.topo.shared <- true;
  (* Deriving never writes to a frozen parent: it may be read (and
     derived from) concurrently. *)
  let keep_parent = t.frozen in
  {
    topo = t.topo;
    graph_attrs = t.graph_attrs;
    node_attrs = Table.share ~keep_parent t.node_attrs;
    edge_attrs = Table.share ~keep_parent t.edge_attrs;
    frozen = false;
  }

let freeze t = t.frozen <- true

let check_versions ctx a b =
  if a.topo != b.topo then invalid_arg (ctx ^ ": versions of different graphs")

let changed_nodes ~since t =
  check_versions "Graph.changed_nodes" since t;
  Table.changed since.node_attrs t.node_attrs

let changed_edges ~since t =
  check_versions "Graph.changed_edges" since t;
  Table.changed since.edge_attrs t.edge_attrs

let induced_subgraph t sel =
  let n = node_count t in
  let new_id = Array.make n (-1) in
  Array.iteri
    (fun i v ->
      check_node t v "Graph.induced_subgraph";
      if new_id.(v) <> -1 then invalid_arg "Graph.induced_subgraph: duplicate node";
      new_id.(v) <- i)
    sel;
  let g = create ~kind:(kind t) ~name:(name t) () in
  Array.iter (fun v -> ignore (add_node g (node_attrs t v))) sel;
  iter_edges
    (fun e u v ->
      if new_id.(u) <> -1 && new_id.(v) <> -1 then
        ignore (add_edge g new_id.(u) new_id.(v) (edge_attrs t e)))
    t;
  (g, Array.copy sel)

let spanning_subgraph t sel keep_edges =
  let n = node_count t in
  let new_id = Array.make n (-1) in
  Array.iteri
    (fun i v ->
      check_node t v "Graph.spanning_subgraph";
      if new_id.(v) <> -1 then invalid_arg "Graph.spanning_subgraph: duplicate node";
      new_id.(v) <- i)
    sel;
  let g = create ~kind:(kind t) ~name:(name t) () in
  Array.iter (fun v -> ignore (add_node g (node_attrs t v))) sel;
  Array.iter
    (fun e ->
      let u, v = endpoints t e in
      if new_id.(u) = -1 || new_id.(v) = -1 then
        invalid_arg "Graph.spanning_subgraph: edge outside selection";
      ignore (add_edge g new_id.(u) new_id.(v) (edge_attrs t e)))
    keep_edges;
  (g, Array.copy sel)

let density t =
  let n = float_of_int (node_count t) in
  let m = float_of_int (edge_count t) in
  if node_count t < 2 then 0.0
  else
    match kind t with
    | Undirected -> m /. (n *. (n -. 1.0) /. 2.0)
    | Directed -> m /. (n *. (n -. 1.0))

let pp_summary ppf t =
  Format.fprintf ppf "%s: %d nodes, %d edges (%s)"
    (if name t = "" then "<graph>" else name t)
    (node_count t) (edge_count t)
    (match kind t with Undirected -> "undirected" | Directed -> "directed")
