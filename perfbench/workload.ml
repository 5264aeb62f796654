(* Seeded request streams for the three benchmark workloads.

   A workload is a pool of request templates plus an infinite stream
   of items over that pool.  Item [k] of a stream depends only on the
   seed and [k], so every phase of a run (and the traced replay) can
   consume the next chunk of one stream, and the same seed always
   yields byte-identical frames ([dump]).

   - churn: PL-296.  ALLOC path/star tenants of 2-5 nodes from a small
     set of size classes, each FREEd [churn_lag] ALLOCs later.
   - hard: PL-296.  EMBED alg=ECF mode=all over tight-band cliques,
     infeasible subgraph queries and a few feasible tight enumerations.
   - tiny: planetlab-40.  The cheap loadgen mix: 2-node LNS/ECF
     EMBED, an unsat node-constraint query, UTIL, TOP and HEALTH. *)

module Graph = Netembed_graph.Graph
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Rng = Netembed_rng.Rng
module Engine = Netembed_core.Engine
module Request = Netembed_service.Request
module Wire = Netembed_service.Wire
module Query_gen = Netembed_workload.Query_gen

type kind = Churn | Hard | Tiny

let kind_of_string = function
  | "churn" -> Some Churn
  | "hard" -> Some Hard
  | "tiny" -> Some Tiny
  | _ -> None

let kind_name = function Churn -> "churn" | Hard -> "hard" | Tiny -> "tiny"

type verb = Embed | Alloc | Util | Top | Health

type template = {
  id : int;
  label : string;  (** size class / query family, for reports *)
  verb : verb;
  request : Request.t option;  (** [Embed] / [Alloc] only *)
  frame : string;  (** the exact bytes sent *)
}

type item =
  | Send of { tmpl : int; tenant : int option }
      (** a template frame; [tenant] numbers churn ALLOCs *)
  | Free of int  (** FREE the allocation committed for this tenant *)

type t = {
  kind : kind;
  pool : template array;
  order : int array;  (** one seeded block of template ids, cycled *)
  blocks : int array array;  (** seeded orders of the block, cycled *)
}

(* ALLOCs between a tenant's arrival and its departure. *)
let churn_lag = 24

let node_attrs l = Attrs.of_list l

let make_template id label verb request =
  let frame =
    match (verb, request) with
    | Embed, Some r -> Wire.encode_command (Wire.Submit r)
    | Alloc, Some r -> Wire.encode_command (Wire.Allocate r)
    | Util, _ -> Wire.encode_command Wire.Utilization
    | Top, _ -> Wire.encode_command Wire.Top
    | Health, _ -> Wire.encode_command Wire.Health
    | (Embed | Alloc), None -> invalid_arg "Workload.make_template"
  in
  { id; label; verb; request; frame }

(* ------------------------------------------------------------------ *)
(* churn                                                               *)
(* ------------------------------------------------------------------ *)

let churn_constraint =
  "rEdge.avgDelay <= vEdge.maxDelay && rEdge.bandwidth >= vEdge.bandwidth"

let churn_node_constraint =
  "rSource.cpuMhz >= vSource.cpuMhz && rSource.memMB >= vSource.memMB"

(* A path or star tenant: every node demands [cpu] MHz and [mem] MB,
   every link [bw] Mbps and a delay bound. *)
let tenant_query ~star ~n ~cpu ~mem ~bw ~delay =
  let g = Graph.create ~name:(Printf.sprintf "%s-%d" (if star then "star" else "path") n) () in
  for _ = 1 to n do
    ignore
      (Graph.add_node g
         (node_attrs [ ("cpuMhz", Value.Int cpu); ("memMB", Value.Int mem) ]))
  done;
  for i = 1 to n - 1 do
    let u = if star then 0 else i - 1 in
    ignore
      (Graph.add_edge g u i
         (node_attrs [ ("bandwidth", Value.Float bw); ("maxDelay", Value.Float delay) ]))
  done;
  g

let churn_pool rng =
  (* 12 size classes — shape x size x algorithm, half LNS, half ECF —
     with demands fixed per class so query signatures repeat across
     tenants.  One class in three is oversize — a node demand above
     every host's capacity — so its ALLOC is answered unsat and places
     nothing: accept_ratio has a known value (2/3), and ALLOCs outnumber
     FREEs, which keeps the median reply inside the ALLOC population.
     Twelve classes keep a block of the mix (12 arrivals, 12 departures)
     short enough that a run interleaves several of each phase. *)
  let lns = Engine.LNS and ecf = Engine.ECF in
  let placeable =
    List.map (fun (star, n) -> (false, star, n, lns))
      [ (false, 2); (false, 3); (false, 4); (false, 5); (true, 4); (true, 5) ]
    @ List.map (fun (star, n) -> (false, star, n, ecf)) [ (false, 3); (true, 4) ]
  in
  (* Oversize tenants are ECF only: an unsat ECF ALLOC costs about what a
     placed one does (the filter build), so the two ALLOC populations
     (LNS, ECF) stay apart in latency and the percentiles fall inside
     one of them rather than on a boundary. *)
  let oversize =
    List.map (fun (star, n) -> (true, star, n, ecf)) [ (false, 2); (false, 3); (true, 3); (true, 4) ]
  in
  let classes = placeable @ oversize in
  List.mapi
    (fun id (big, star, n, alg) ->
      let cpu = if big then 4000 else 200 + (100 * Rng.int rng 4) in
      let mem = 128 * (1 + Rng.int rng 4) in
      let bw = float_of_int (2 + Rng.int rng 5) in
      let delay = float_of_int (150 + (25 * Rng.int rng 5)) in
      let query = tenant_query ~star ~n ~cpu ~mem ~bw ~delay in
      let request =
        Request.make ~node_constraint:churn_node_constraint ~algorithm:alg
          ~mode:Engine.First ~timeout:10.0 ~query churn_constraint
      in
      make_template id
        (Printf.sprintf "%s%s%d/%s" (if big then "oversize-" else "")
           (if star then "star" else "path") n (Engine.algorithm_name alg))
        Alloc (Some request))
    classes
  @ [ make_template (List.length classes) "util" Util None ]
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* hard                                                                *)
(* ------------------------------------------------------------------ *)

let hard_timeout = 30.0

let hard_request (case : Query_gen.case) constraint_text =
  Request.make ~algorithm:Engine.ECF ~mode:Engine.All ~timeout:hard_timeout
    ~query:case.Query_gen.query constraint_text

let avg_delay_text =
  "rEdge.avgDelay >= vEdge.minDelay && rEdge.avgDelay <= vEdge.maxDelay"

let range_text =
  "rEdge.minDelay >= vEdge.minDelay && rEdge.maxDelay <= vEdge.maxDelay"

let hard_pool rng ~host =
  let cliques =
    (* (k, band low, band high): tight bands admit many partial
       cliques but few or no complete ones, so the search backtracks
       hard and unsat answers build failure certificates. *)
    [ (5, 10.0, 24.0); (6, 10.0, 25.0); (7, 10.0, 26.0) ]
    |> List.map (fun (k, lo, hi) ->
           let case = Query_gen.clique ~k ~delay_lo:lo ~delay_hi:hi in
           (Printf.sprintf "clique%d" k, hard_request case avg_delay_text))
  in
  let infeasible =
    List.init 8 (fun i ->
        let n = 6 + i in
        let case = Query_gen.make_infeasible rng (Query_gen.subgraph rng ~host ~n ()) in
        (Printf.sprintf "infeasible%d" n, hard_request case range_text))
  in
  let feasible =
    List.init 7 (fun i ->
        let n = 4 + i in
        let case = Query_gen.subgraph rng ~host ~n () in
        (Printf.sprintf "tight%d" n, hard_request case range_text))
  in
  List.mapi (fun id (label, r) -> make_template id label Embed (Some r))
    (cliques @ infeasible @ feasible)
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* tiny                                                                *)
(* ------------------------------------------------------------------ *)

let pair_query () =
  let g = Graph.create ~name:"pair" () in
  let x = Graph.add_node g Attrs.empty in
  let y = Graph.add_node g Attrs.empty in
  ignore (Graph.add_edge g x y Attrs.empty);
  g

let tiny_pool () =
  let q = pair_query () in
  [|
    make_template 0 "lns-first" Embed
      (Some
         (Request.make ~algorithm:Engine.LNS ~mode:Engine.First ~timeout:5.0 ~query:q
            "rEdge.avgDelay < 500"));
    make_template 1 "ecf-all" Embed
      (Some
         (Request.make ~algorithm:Engine.ECF ~mode:Engine.All ~timeout:5.0 ~query:q
            "rEdge.avgDelay < 100"));
    make_template 2 "unsat" Embed
      (Some
         (Request.make ~node_constraint:"rSource.cpuMhz >= 99999999"
            ~algorithm:Engine.ECF ~mode:Engine.All ~query:q "true"));
    make_template 3 "util" Util None;
    make_template 4 "top" Top None;
    make_template 5 "health" Health None;
  |]

(* 20-slot block: 11 LNS, 3 ECF-all, 1 unsat, 2 UTIL, 2 TOP, 1 HEALTH —
   the loadgen's 60/15/5/20 split with HEALTH taking a diagnostics
   slot.  A fixed-composition block keeps the mix identical across
   seeds; the seed only orders it. *)
let tiny_block = [| 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 1; 1; 1; 2; 3; 3; 4; 4; 5 |]

(* ------------------------------------------------------------------ *)
(* Streams                                                             *)
(* ------------------------------------------------------------------ *)

(* The pool is drawn once, from a fixed seed: every benchmark seed sees
   the same templates, so the cost mix a run measures does not depend
   on the seed.  The seed draws the stream: the order of every block,
   and with it which tenants share the ledger at any time. *)
let pool_seed = 1

let gaps_seed = 2

let make kind ~seed ~host =
  let pool_rng = Rng.make pool_seed in
  let pool =
    match kind with
    | Churn -> churn_pool pool_rng
    | Hard -> hard_pool pool_rng ~host
    | Tiny -> tiny_pool ()
  in
  let rng = Rng.make ((seed * 7919) + Hashtbl.hash (kind_name kind)) in
  (* Every block holds each template of the composition once (tiny:
     the weighted 20-slot mix), in a fresh seeded order derived from
     the block number alone. *)
  let arrange r =
    match kind with
    | Tiny ->
        let a = Array.copy tiny_block in
        Rng.shuffle_in_place r a;
        a
    | Churn ->
        (* LNS tenants are cheap and ECF tenants (half of them oversize)
           cost several times more; alternating the two keeps the queue
           they leave at a fixed rate the same in every block, as the
           clique spacing does for hard.  The trailing UTIL template is
           sent only after the drain. *)
        let tenants = Array.init (Array.length pool - 1) Fun.id in
        let is_lns i =
          match pool.(i).request with Some q -> q.Request.algorithm = Engine.LNS | None -> false
        in
        let lns = Array.of_list (List.filter is_lns (Array.to_list tenants))
        and ecf = Array.of_list (List.filter (fun i -> not (is_lns i)) (Array.to_list tenants)) in
        Rng.shuffle_in_place r lns;
        Rng.shuffle_in_place r ecf;
        Array.init (Array.length tenants) (fun i -> if i mod 2 = 0 then lns.(i / 2) else ecf.(i / 2))
    | Hard ->
        (* Cliques cost several times the rest; spacing them evenly
           (slots 0, 6, 12) keeps the queue they leave at a fixed rate
           the same in every block. *)
        let cliques = [| 0; 1; 2 |] and rest = Array.init (Array.length pool - 3) (fun i -> i + 3) in
        Rng.shuffle_in_place r cliques;
        Rng.shuffle_in_place r rest;
        Array.init (Array.length pool) (fun i ->
            if i mod 6 = 0 then cliques.(i / 6) else rest.(i - (i / 6) - 1))
  in
  let blocks = Array.init 64 (fun b -> arrange (if b = 0 then rng else Rng.make ((seed * 104729) + b))) in
  { kind; pool; order = blocks.(0); blocks }

(* Inter-arrival times of mean 1 for open-loop probes: a Poisson
   arrival process, scaled by 1/rate at send time.  Like the pool, it is
   drawn from a fixed seed, and every probe replays it from the start:
   probes differ only in their rate, and runs in the luck of the draw
   not at all. *)
let poisson_gaps n =
  let r = Rng.make gaps_seed in
  Array.init n (fun _ -> Rng.exponential r ~mean:1.0)

let template_at t i =
  let n = Array.length t.order in
  t.blocks.(i / n mod Array.length t.blocks).(i mod n)

(* Item [k] of the stream.  churn: tenants 0 .. lag-1 arrive first,
   then every further arrival is followed by the departure of the
   tenant [lag] arrivals older. *)
let item t k =
  match t.kind with
  | Hard | Tiny -> Send { tmpl = template_at t k; tenant = None }
  | Churn ->
      if k < churn_lag then Send { tmpl = template_at t k; tenant = Some k }
      else
        let j = (k - churn_lag) / 2 in
        if (k - churn_lag) mod 2 = 0 then
          let tenant = churn_lag + j in
          Send { tmpl = template_at t tenant; tenant = Some tenant }
        else Free j

(* Stream positions where a block of the mix starts.  hard and tiny:
   every block of templates.  churn: tenant blocks — after the first
   [churn_lag] arrivals, each block of 2 x 12 items holds the arrivals
   of one block of tenants and the departures of the block [churn_lag]
   arrivals older. *)
let block_items t = match t.kind with Churn -> 2 * Array.length t.order | Hard | Tiny -> Array.length t.order

let first_boundary t = match t.kind with Churn -> churn_lag | Hard | Tiny -> 0

let next_boundary t k =
  let first = first_boundary t and b = block_items t in
  if k <= first then first else first + ((k - first + b - 1) / b * b)

let is_boundary t k = next_boundary t k = k

(* Requests one block sends: churn skips the FREE of every tenant its
   oversize ALLOC did not place. *)
let requests_per_block t =
  match t.kind with
  | Hard | Tiny -> Array.length t.order
  | Churn ->
      let placed =
        Array.fold_left
          (fun a i -> if String.length t.pool.(i).label > 8 && String.sub t.pool.(i).label 0 8 = "oversize" then a else a + 1)
          0 t.order
      in
      Array.length t.order + placed

let frame_of_item t = function
  | Send { tmpl; _ } -> t.pool.(tmpl).frame
  | Free tenant -> Printf.sprintf "FREE @tenant%d\n.\n" tenant

(* The first [n] frames of the stream, FREE ids shown as the tenant
   placeholder they are resolved from at send time. *)
let dump t n =
  let buf = Buffer.create 65536 in
  for k = 0 to n - 1 do
    Buffer.add_string buf (frame_of_item t (item t k))
  done;
  Buffer.contents buf
