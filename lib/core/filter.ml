open Netembed_graph
module Ast = Netembed_expr.Ast
module Bounds = Netembed_expr.Bounds
module Bitset = Netembed_bitset.Bitset
module Explain = Netembed_explain.Explain

type ordering = Connected_lemma1 | Lemma1 | Input_order

type t = {
  cells : (int, Bitset.t) Hashtbl.t;
      (** key: (q_assigned * nq + q_next) * nr + r_assigned; values are
          non-empty candidate sets over the host universe *)
  cell_views : (int, int array) Hashtbl.t;
      (** lazily materialized sorted-array views of [cells] for the
          legacy array path (differential tests, bench ablation) *)
  nq : int;
  nr : int;
  ordering : ordering;
  node_ok : Bitset.t array;
      (** per query node: the host nodes passing {!Problem.node_ok} *)
  accepts : Bitset.t array;
      (** per query edge [qe] stored [s -> d], over host edges [he]
          stored [u -> v]: [2*qe] holds the edges accepted in
          orientation s->u, d->v, [2*qe+1] those accepted in s->v, d->u
          (undirected hosts only).  Accepted = both endpoints pass
          [node_ok] and the specialized constraint holds.  The cells
          are a function of these bits, which is what makes {!repair}
          incremental. *)
  node_cands : Bitset.t array;
  node_cand_views : int array array;
  ls_order : int array;
  nonempty_cells : int;
}

let cell_key t a b r = (((a * t.nq) + b) * t.nr) + r

let builds = Atomic.make 0
let builds_total () = Atomic.get builds

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let node_ok_bits (p : Problem.t) q =
  let nr = Graph.node_count p.host in
  let bits = Bitset.create nr in
  for r = 0 to nr - 1 do
    if Problem.node_ok p ~q ~r then Bitset.add bits r
  done;
  bits

(* If the residual never touches host-endpoint attributes, its value
   cannot depend on the orientation of the host edge, so one evaluation
   decides both — and a change to an endpoint's attributes cannot
   change it either. *)
let reads_endpoints residual =
  Ast.fold_attrs
    (fun obj _ acc ->
      acc
      ||
      match obj with
      | Ast.R_source | Ast.R_target -> true
      | Ast.R_edge | Ast.V_edge | Ast.V_source | Ast.V_target -> false)
    residual false

let set_bit b i v = if v then Bitset.add b i else Bitset.remove b i

(* Decide host edge [he] (stored u -> v) for one query edge whose
   endpoints' node filters are [ok_s] and [ok_d], adding [he] to the
   orientation sets it is accepted in ([fwd]: s->u, d->v; [bwd]: s->v,
   d->u).  [test he r_src r_dst] evaluates the constraint; it runs only
   where both endpoints pass their node filter, once per orientation
   when [sensitive], else once for both.  The caller clears [he] first
   when re-judging. *)
let judge ~test ~sensitive ~undirected ~ok_s ~ok_d ~fwd ~bwd he u v =
  let fwd_ok = Bitset.mem ok_s u && Bitset.mem ok_d v in
  let bwd_ok = undirected && Bitset.mem ok_s v && Bitset.mem ok_d u in
  if sensitive then begin
    if fwd_ok && test he u v then Bitset.add fwd he;
    if bwd_ok && test he v u then Bitset.add bwd he
  end
  else if (fwd_ok || bwd_ok) && test he u v then begin
    if fwd_ok then Bitset.add fwd he;
    if bwd_ok then Bitset.add bwd he
  end

(* Everything downstream of the cells, shared by [build] and [repair]:
   per-query-node candidates and the search order. *)
let finish t (p : Problem.t) ~blame =
  let nq = t.nq and nr = t.nr in
  let node_cands = Array.make (max 1 nq) (Bitset.create nr) in
  let node_cand_views = Array.make (max 1 nq) [||] in
  (* Node-level candidates: intersection over incident edges of the
     sources present in F, within node_ok. *)
  for q = 0 to nq - 1 do
    let incident = Problem.query_neighbours p q in
    let sets =
      List.map
        (fun (w, _) ->
          (* sources r for which cell (q, w, r) is non-empty *)
          let out = Bitset.create nr in
          for r = 0 to nr - 1 do
            if Hashtbl.mem t.cells (cell_key t q w r) then Bitset.add out r
          done;
          out)
        incident
    in
    node_cands.(q) <-
      (match sets with
      | [] -> Bitset.copy t.node_ok.(q)
      | first :: rest ->
          List.iter (fun s -> Bitset.inter_into ~dst:first s) rest;
          first);
    node_cand_views.(q) <- Bitset.to_array node_cands.(q)
  done;
  (* Explain mode: attribute every host excluded from a node's
     expression-(1) candidate set to the filter stage that removed it.
     Precedence mirrors the build: the degree filter fires before the
     node constraint, which fires before edge-compatibility.  Re-testing
     node constraints here re-counts their evaluations — acceptable,
     since blame is only threaded through diagnostic runs. *)
  (match blame with
  | None -> ()
  | Some bl ->
      for q = 0 to nq - 1 do
        let incident = Problem.query_neighbours p q in
        for r = 0 to nr - 1 do
          if not (Bitset.mem node_cands.(q) r) then
            if not (Problem.degree_ok p ~q ~r) then
              Explain.Blame.eliminate bl ~q Explain.Cause.Degree_filter
            else if not (Problem.node_constraint_ok p ~q ~r) then
              Explain.Blame.eliminate bl ~q Explain.Cause.Node_constraint
            else (
              match
                List.find_opt
                  (fun (w, _) -> not (Hashtbl.mem t.cells (cell_key t q w r)))
                  incident
              with
              | Some (w, _) ->
                  Explain.Blame.eliminate bl ~q (Explain.Cause.Edge_constraint (q, w))
              | None -> ())
        done
      done);
  (* Search order: Lemma 1 seeds the order with the fewest-candidate
     node; after that, expression (2) only prunes through edges into the
     assigned prefix, so each subsequent node is chosen connected to the
     prefix (most edges into it, ties broken by fewest candidates).
     Disconnected queries reseed by candidate count. *)
  let cand_counts = Array.init (max 1 nq) (fun q -> Bitset.cardinal node_cands.(q)) in
  let cand_count q = cand_counts.(q) in
  let order =
    match t.ordering with
    | Input_order -> Array.init nq (fun q -> q)
    | Lemma1 ->
        let order = Array.init nq (fun q -> q) in
        Array.sort
          (fun q1 q2 ->
            let c = compare (cand_count q1) (cand_count q2) in
            if c <> 0 then c
            else compare (Graph.degree p.query q2) (Graph.degree p.query q1))
          order;
        order
    | Connected_lemma1 ->
        let order = Array.make (max 1 nq) 0 in
        let placed = Array.make (max 1 nq) false in
        let links_to_prefix = Array.make (max 1 nq) 0 in
        for pos = 0 to nq - 1 do
          let best = ref (-1) in
          let better q =
            match !best with
            | -1 -> true
            | b ->
                if links_to_prefix.(q) <> links_to_prefix.(b) then
                  links_to_prefix.(q) > links_to_prefix.(b)
                else if cand_count q <> cand_count b then cand_count q < cand_count b
                else Graph.degree p.query q > Graph.degree p.query b
          in
          for q = 0 to nq - 1 do
            if (not placed.(q)) && better q then best := q
          done;
          let q = !best in
          placed.(q) <- true;
          order.(pos) <- q;
          List.iter
            (fun (w, _) ->
              if not placed.(w) then links_to_prefix.(w) <- links_to_prefix.(w) + 1)
            (Problem.query_neighbours p q)
        done;
        if nq = 0 then [||] else order
  in
  {
    t with
    node_cands;
    node_cand_views;
    ls_order = order;
    nonempty_cells = Hashtbl.length t.cells;
  }

(* Every cell at once, in one pass over each query edge's accepted host
   edges — the same cells [row] computes one at a time.  A cell of a
   query pair joined by parallel edges needs a contribution from every
   one of them: contributions are intersected and the cell is kept only
   if all edges of the pair contributed. *)
let fill_cells t (p : Problem.t) accepts =
  let nr = t.nr in
  let none = Bitset.create 0 in
  let pending = Hashtbl.create 1024 in
  let group = Hashtbl.create 16 in
  Graph.iter_edges
    (fun qe s d ->
      let pair = (min s d, max s d) in
      Hashtbl.replace group pair (1 + Option.value ~default:0 (Hashtbl.find_opt group pair));
      (* This edge's rows, indexed by the host node playing [s] (fwd) or
         [d] (bwd). *)
      let fwd = Array.make nr none and bwd = Array.make nr none in
      let record rows r partner =
        if rows.(r) == none then rows.(r) <- Bitset.create nr;
        Bitset.add rows.(r) partner
      in
      Bitset.iter
        (fun he ->
          let u, v = Graph.endpoints p.host he in
          record fwd u v;
          record bwd v u)
        accepts.(2 * qe);
      Bitset.iter
        (fun he ->
          let u, v = Graph.endpoints p.host he in
          record fwd v u;
          record bwd u v)
        accepts.((2 * qe) + 1);
      let merge x y rows =
        Array.iteri
          (fun r bits ->
            if bits != none then
              let key = cell_key t x y r in
              match Hashtbl.find_opt pending key with
              | None -> Hashtbl.replace pending key (bits, 1, pair)
              | Some (prior, hits, _) ->
                  Bitset.inter_into ~dst:prior bits;
                  Hashtbl.replace pending key (prior, hits + 1, pair))
          rows
      in
      merge s d fwd;
      merge d s bwd)
    p.query;
  Hashtbl.iter
    (fun key (bits, hits, pair) ->
      if hits = Hashtbl.find group pair && not (Bitset.is_empty bits) then
        Hashtbl.replace t.cells key bits)
    pending

let build ?(ordering = Connected_lemma1) ?(prefilter = true) ?blame (p : Problem.t) =
  Atomic.incr builds;
  let nq = Graph.node_count p.query and nr = Graph.node_count p.host in
  let ne = Graph.edge_count p.host in
  let host_edges = Graph.edges p.host in
  let undirected = Graph.kind p.host = Graph.Undirected in
  (* Per-query-node acceptability over all host nodes, precomputed once:
     the per-host-edge loop below would otherwise re-evaluate the node
     constraint for the same (q, r) pair once per incident host edge. *)
  let node_ok = Array.init nq (node_ok_bits p) in
  (* Column stores for the bounds pre-filter, shared by every residual
     of this build; columns materialize on first touch. *)
  let edge_store =
    lazy (Prefilter.create ~size:ne ~attrs:(Graph.edge_attrs p.host))
  in
  let node_store =
    lazy
      (Prefilter.create ~size:(Graph.node_count p.host) ~attrs:(Graph.node_attrs p.host))
  in
  (* Directed hosts have no reverse orientation: one shared empty set. *)
  let no_reverse = Bitset.create ne in
  let accepts = Array.make (max 1 (2 * Graph.edge_count p.query)) no_reverse in
  (* Per query edge: evaluate the specialized residual against every host
     edge (both host orientations when undirected). *)
  Graph.iter_edges
    (fun qe a b ->
      let residual = Problem.residual p qe ~q_src:a ~q_dst:b in
      let plan =
        if not prefilter then None
        else
          let bounds = Bounds.of_ast residual in
          if bounds.Bounds.atoms = [] && not bounds.Bounds.complete then None
          else
            Some
              (Prefilter.plan ~edges:(Lazy.force edge_store)
                 ~nodes:(Lazy.force node_store) bounds)
      in
      (* All real evaluations flow through [Problem.edge_pair_ok] and its
         shared telemetry counter; pairs the pre-filter decides never
         reach the evaluator, which is exactly the saving the bench
         ablation measures. *)
      let test he u v =
        match plan with
        | None -> Problem.edge_pair_ok p ~qe ~q_src:a ~q_dst:b ~he ~r_src:u ~r_dst:v
        | Some plan ->
            if not (Prefilter.admits_pair plan ~he ~r_src:u ~r_dst:v) then false
            else if Prefilter.decides_pair plan ~he ~r_src:u ~r_dst:v then true
            else Problem.edge_pair_ok p ~qe ~q_src:a ~q_dst:b ~he ~r_src:u ~r_dst:v
      in
      let fwd = Bitset.create ne in
      let bwd = if undirected then Bitset.create ne else no_reverse in
      let sensitive = reads_endpoints residual in
      Array.iter
        (fun (he, u, v) ->
          judge ~test ~sensitive ~undirected ~ok_s:node_ok.(a) ~ok_d:node_ok.(b) ~fwd
            ~bwd he u v)
        host_edges;
      accepts.(2 * qe) <- fwd;
      accepts.((2 * qe) + 1) <- bwd)
    p.query;
  let t =
    {
      cells = Hashtbl.create 1024;
      cell_views = Hashtbl.create 64;
      nq;
      nr;
      ordering;
      node_ok;
      accepts;
      node_cands = [||];
      node_cand_views = [||];
      ls_order = [||];
      nonempty_cells = 0;
    }
  in
  fill_cells t p accepts;
  finish t p ~blame

(* ------------------------------------------------------------------ *)
(* Repair                                                              *)
(* ------------------------------------------------------------------ *)

(* One row of the matrix: the cell [F[x, r, y]], i.e. the partners of
   host [r] (playing [x]) for [y].  With parallel query edges between
   [x] and [y] every one of them must be satisfiable, so the row is the
   intersection of each edge's contribution. *)
let row (p : Problem.t) accepts ~x ~y r =
  let host = p.host in
  let undirected = Graph.kind host = Graph.Undirected in
  let contribution (qe, forward) =
    (* [forward]: qe is stored x -> y, so [r] plays its source. *)
    let fwd = accepts.(2 * qe) and bwd = accepts.((2 * qe) + 1) in
    let out = Bitset.create (Graph.node_count host) in
    if undirected then
      List.iter
        (fun (partner, he) ->
          let r_is_src = Graph.edge_source host he = r in
          let bits = if r_is_src = forward then fwd else bwd in
          if Bitset.mem bits he then Bitset.add out partner)
        (Graph.succ host r)
    else
      List.iter
        (fun (partner, he) -> if Bitset.mem fwd he then Bitset.add out partner)
        (if forward then Graph.succ host r else Graph.pred host r);
    out
  in
  match Problem.query_edges_between p x y with
  | [] -> Bitset.create (Graph.node_count host)
  | first :: rest ->
      let acc = contribution first in
      List.iter (fun e -> Bitset.inter_into ~dst:acc (contribution e)) rest;
      acc

(* Recompute the rows [rows] of both directed pairs of the unordered
   query pair [(a, b)]. *)
let refill_rows t (p : Problem.t) accepts cells (a, b) rows =
  Bitset.iter
    (fun r ->
      List.iter
        (fun (x, y) ->
          let key = cell_key t x y r in
          let bits = row p accepts ~x ~y r in
          if Bitset.is_empty bits then Hashtbl.remove cells key
          else Hashtbl.replace cells key bits)
        [ (a, b); (b, a) ])
    rows

(* The unordered query pairs, each with the rows its cells need: every
   endpoint of a host edge marked in [marks qe]. *)
let pair_rows (p : Problem.t) marks =
  let tbl = Hashtbl.create 16 in
  Graph.iter_edges
    (fun qe a b ->
      let key = (min a b, max a b) in
      let rows =
        match Hashtbl.find_opt tbl key with
        | Some rows -> rows
        | None ->
            let rows = Bitset.create (Graph.node_count p.host) in
            Hashtbl.replace tbl key rows;
            rows
      in
      Bitset.iter
        (fun he ->
          let u, v = Graph.endpoints p.host he in
          Bitset.add rows u;
          Bitset.add rows v)
        (marks qe))
    p.query;
  tbl

(* The filter of [f] rebased onto [p]'s host.  An accept bit depends
   only on the attributes of its host edge and of the edge's two
   endpoints (through the node filters, and through the constraint when
   it reads rSource/rTarget), and a row of the matrix only on the accept
   bits of the host edges incident to it.  So only host edges that
   changed, or that touch a changed node whose filter verdict flipped
   (or, for endpoint-reading constraints, that touch any changed node),
   are re-judged, and only the rows at the endpoints of bits that
   flipped are recomputed.  Re-judging evaluates the constraint
   directly: the pre-filter's sorted columns are a whole-host cost, and
   its verdicts agree with evaluation by construction. *)
let repair f ~since (p : Problem.t) =
  let host = p.host in
  if Graph.node_count host <> f.nr || Graph.node_count p.query <> f.nq then
    invalid_arg "Filter.repair: problem shape differs from the filter's";
  let changed_nodes = Graph.changed_nodes ~since host in
  let changed_edges = Graph.changed_edges ~since host in
  if changed_nodes = [] && changed_edges = [] then f
  else begin
    let ne = Graph.edge_count host in
    let undirected = Graph.kind host = Graph.Undirected in
    (* Node filters: re-test the changed nodes, remembering the flips. *)
    let flipped = Array.make (max 1 f.nq) [] in
    let node_ok =
      Array.mapi
        (fun q old ->
          let bits = ref old in
          List.iter
            (fun r ->
              let ok = Problem.node_ok p ~q ~r in
              if ok <> Bitset.mem old r then begin
                if !bits == old then bits := Bitset.copy old;
                set_bit !bits r ok;
                flipped.(q) <- r :: flipped.(q)
              end)
            changed_nodes;
          !bits)
        f.node_ok
    in
    let accepts = Array.copy f.accepts in
    let seen = Bitset.create ne in
    let flips = Array.init (Array.length accepts / 2) (fun _ -> Bitset.create ne) in
    Graph.iter_edges
      (fun qe a b ->
        let sensitive = reads_endpoints (Problem.residual p qe ~q_src:a ~q_dst:b) in
        let old_fwd = f.accepts.(2 * qe) and old_bwd = f.accepts.((2 * qe) + 1) in
        let fwd = Bitset.copy old_fwd in
        let bwd = if undirected then Bitset.copy old_bwd else old_bwd in
        let test he u v =
          Problem.edge_pair_ok p ~qe ~q_src:a ~q_dst:b ~he ~r_src:u ~r_dst:v
        in
        Bitset.clear seen;
        let rejudge he =
          if not (Bitset.mem seen he) then begin
            Bitset.add seen he;
            let u, v = Graph.endpoints host he in
            Bitset.remove fwd he;
            if undirected then Bitset.remove bwd he;
            judge ~test ~sensitive ~undirected ~ok_s:node_ok.(a) ~ok_d:node_ok.(b) ~fwd
              ~bwd he u v;
            if Bitset.mem fwd he <> Bitset.mem old_fwd he
               || Bitset.mem bwd he <> Bitset.mem old_bwd he
            then Bitset.add flips.(qe) he
          end
        in
        List.iter rejudge changed_edges;
        let touched r =
          List.iter (fun (_, he) -> rejudge he) (Graph.succ host r);
          if not undirected then List.iter (fun (_, he) -> rejudge he) (Graph.pred host r)
        in
        if sensitive then List.iter touched changed_nodes
        else begin
          List.iter touched flipped.(a);
          List.iter touched flipped.(b)
        end;
        if not (Bitset.is_empty flips.(qe)) then begin
          accepts.(2 * qe) <- fwd;
          accepts.((2 * qe) + 1) <- bwd
        end)
      p.query;
    let cells = Hashtbl.copy f.cells in
    let t = { f with cells; cell_views = Hashtbl.create 64; node_ok; accepts } in
    Hashtbl.iter (refill_rows t p accepts cells) (pair_rows p (fun qe -> flips.(qe)));
    finish t p ~blame:None
  end

let equal a b =
  let same_sets x y =
    Array.length x = Array.length y && Array.for_all2 Bitset.equal x y
  in
  a.nq = b.nq && a.nr = b.nr && a.ordering = b.ordering
  && Hashtbl.length a.cells = Hashtbl.length b.cells
  && Hashtbl.fold
       (fun key bits ok ->
         ok
         &&
         match Hashtbl.find_opt b.cells key with
         | Some bits' -> Bitset.equal bits bits'
         | None -> false)
       a.cells true
  && same_sets a.node_ok b.node_ok && same_sets a.accepts b.accepts
  && same_sets a.node_cands b.node_cands
  && a.ls_order = b.ls_order && a.nonempty_cells = b.nonempty_cells

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let universe t = t.nr

let cell_bits t ~q_assigned ~r_assigned ~q_next =
  Hashtbl.find_opt t.cells (cell_key t q_assigned q_next r_assigned)

(* Exception variant for the search hot loop: [Hashtbl.find] raises the
   preallocated [Not_found], so a hit boxes nothing, where [find_opt]
   allocates a [Some] per lookup — measurable at millions of visited
   nodes per second. *)
let cell_bits_exn t ~q_assigned ~r_assigned ~q_next =
  Hashtbl.find t.cells (cell_key t q_assigned q_next r_assigned)

let candidates_from t ~q_assigned ~r_assigned ~q_next =
  let key = cell_key t q_assigned q_next r_assigned in
  match Hashtbl.find_opt t.cell_views key with
  | Some a -> a
  | None -> (
      match Hashtbl.find_opt t.cells key with
      | None -> [||]
      | Some bits ->
          let a = Bitset.to_array bits in
          Hashtbl.replace t.cell_views key a;
          a)

let node_candidates_bits t q = t.node_cands.(q)
let node_candidates t q = t.node_cand_views.(q)
let order t = t.ls_order
let cell_count t = t.nonempty_cells
