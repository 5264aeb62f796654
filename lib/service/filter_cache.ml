module Filter = Netembed_core.Filter
module Problem = Netembed_core.Problem
module Graph = Netembed_graph.Graph
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value

type entry = { host : Graph.t; filter : Filter.t; compiled : Problem.compiled }
type slot = { entry : entry; mutable last_use : int }

type t = {
  capacity : int;
  tbl : (string, slot) Hashtbl.t;
  mutable clock : int;
  mutable evictions : int;
  mutable invalidations : int;
}

let create ?(capacity = 32) () =
  if capacity < 1 then invalid_arg "Filter_cache.create: capacity must be >= 1";
  { capacity; tbl = Hashtbl.create 64; clock = 0; evictions = 0; invalidations = 0 }

let length t = Hashtbl.length t.tbl
let capacity t = t.capacity
let evictions t = t.evictions
let invalidations t = t.invalidations

(* ------------------------------------------------------------------ *)
(* Query signature                                                     *)
(* ------------------------------------------------------------------ *)

(* The signature is an exact canonical serialization of everything the
   filter build reads from the request: query topology (nodes in id
   order, edges in edge-id order with endpoints), every attribute value
   (tagged by constructor, floats in lossless %h form), and both
   constraint texts verbatim.  Exact-string keying deliberately trades
   hit rate for safety: two requests only share a cache line when the
   build provably reads identical inputs, so a collision can never
   hand a request somebody else's filter.  The host side of the build
   is not in the key: each entry records the host version it matches. *)
let value_sig buf (v : Value.t) =
  match v with
  | Value.Bool b -> Buffer.add_string buf (if b then "B1" else "B0")
  | Value.Int i ->
      Buffer.add_char buf 'I';
      Buffer.add_string buf (string_of_int i)
  | Value.Float f -> Buffer.add_string buf (Printf.sprintf "F%h" f)
  | Value.String s ->
      Buffer.add_string buf (Printf.sprintf "S%d:" (String.length s));
      Buffer.add_string buf s
  | Value.Range (lo, hi) -> Buffer.add_string buf (Printf.sprintf "R%h,%h" lo hi)

let attrs_sig buf attrs =
  List.iter
    (fun (name, v) ->
      Buffer.add_char buf '|';
      Buffer.add_string buf name;
      Buffer.add_char buf '=';
      value_sig buf v)
    (Attrs.to_list attrs)

let signature ~(query : Graph.t) ~constraint_text ~node_constraint_text =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (match Graph.kind query with Graph.Directed -> "D" | Graph.Undirected -> "U");
  Buffer.add_string buf (string_of_int (Graph.node_count query));
  for n = 0 to Graph.node_count query - 1 do
    Buffer.add_string buf "\nN";
    Buffer.add_string buf (string_of_int n);
    attrs_sig buf (Graph.node_attrs query n)
  done;
  Array.iter
    (fun (e, u, v) ->
      Buffer.add_string buf (Printf.sprintf "\nE%d,%d" u v);
      attrs_sig buf (Graph.edge_attrs query e))
    (Graph.edges query);
  Buffer.add_string buf "\nC=";
  Buffer.add_string buf constraint_text;
  Buffer.add_string buf "\nNC=";
  Buffer.add_string buf (Option.value ~default:"" node_constraint_text);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* LRU mechanics                                                       *)
(* ------------------------------------------------------------------ *)

let find t ~signature =
  match Hashtbl.find_opt t.tbl signature with
  | None -> None
  | Some slot ->
      t.clock <- t.clock + 1;
      slot.last_use <- t.clock;
      Some slot.entry

let evict_lru t =
  let worst = ref None in
  Hashtbl.iter
    (fun k slot ->
      match !worst with
      | Some (_, age) when age <= slot.last_use -> ()
      | _ -> worst := Some (k, slot.last_use))
    t.tbl;
  match !worst with
  | None -> ()
  | Some (k, _) ->
      Hashtbl.remove t.tbl k;
      t.evictions <- t.evictions + 1

let add t ~signature entry =
  t.clock <- t.clock + 1;
  match Hashtbl.find_opt t.tbl signature with
  | Some slot when slot.entry.host == entry.host -> slot.last_use <- t.clock
  | Some _ ->
      Hashtbl.replace t.tbl signature { entry; last_use = t.clock };
      t.invalidations <- t.invalidations + 1
  | None ->
      while Hashtbl.length t.tbl >= t.capacity do
        evict_lru t
      done;
      Hashtbl.replace t.tbl signature { entry; last_use = t.clock }
