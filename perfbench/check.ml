(* Answer checking, shared by the TCP client and the in-process replay.

   - Every returned mapping passes Verify.check against the base host
     and the request's own constraints (memoized per distinct answer
     body, so repeated identical answers are checked once).
   - EMBED counts are pinned at set-up on workloads whose model never
     changes (hard, tiny) and every answer must match its pin.
   - churn keeps an independent shadow ledger built from the host's
     declared capacities: no committed ALLOC may over-commit it, and
     after the final drain the server's UTIL must report used=0. *)

module Graph = Netembed_graph.Graph
module Attrs = Netembed_attr.Attrs
module Engine = Netembed_core.Engine
module Problem = Netembed_core.Problem
module Mapping = Netembed_core.Mapping
module Verify = Netembed_core.Verify
module Request = Netembed_service.Request
module Wire = Netembed_service.Wire

(* ------------------------------------------------------------------ *)
(* Shadow ledger                                                       *)
(* ------------------------------------------------------------------ *)

let node_resources = [ "cpuMhz"; "memMB" ]
let edge_resources = [ "bandwidth" ]

type shadow = {
  capacity : (string * int, float) Hashtbl.t;  (** (resource, element) *)
  used : (string * int, float) Hashtbl.t;
  charges : (int, ((string * int) * float) list) Hashtbl.t;  (** by allocation id *)
}

let node_key r v = ("n:" ^ r, v)
let edge_key r e = ("e:" ^ r, e)

let shadow_of_host host =
  let capacity = Hashtbl.create 65536 in
  Graph.iter_nodes
    (fun v ->
      List.iter
        (fun r ->
          match Attrs.float r (Graph.node_attrs host v) with
          | Some c -> Hashtbl.replace capacity (node_key r v) c
          | None -> ())
        node_resources)
    host;
  Graph.iter_edges
    (fun e _ _ ->
      List.iter
        (fun r ->
          match Attrs.float r (Graph.edge_attrs host e) with
          | Some c -> Hashtbl.replace capacity (edge_key r e) c
          | None -> ())
        edge_resources)
    host;
  { capacity; used = Hashtbl.create 1024; charges = Hashtbl.create 64 }

(* The demand lines of [mapping]: query-node demands on the mapped
   host nodes, query-link bandwidth on the host link between the
   mapped endpoints. *)
let demand ~host ~query (m : (int * int) list) =
  let target q = List.assoc q m in
  let lines = ref [] in
  Graph.iter_nodes
    (fun q ->
      List.iter
        (fun r ->
          match Attrs.float r (Graph.node_attrs query q) with
          | Some d when d > 0.0 -> lines := (node_key r (target q), d) :: !lines
          | _ -> ())
        node_resources)
    query;
  Graph.iter_edges
    (fun e u v ->
      List.iter
        (fun r ->
          match Attrs.float r (Graph.edge_attrs query e) with
          | Some d when d > 0.0 -> (
              match Graph.find_edge host (target u) (target v) with
              | Some he -> lines := (edge_key r he, d) :: !lines
              | None -> lines := (("missing-link", -1), d) :: !lines)
          | _ -> ())
        edge_resources)
    query;
  !lines

let shadow_commit s ~id lines =
  let over = ref None in
  List.iter
    (fun (key, d) ->
      let u = d +. Option.value ~default:0.0 (Hashtbl.find_opt s.used key) in
      Hashtbl.replace s.used key u;
      let cap = Option.value ~default:0.0 (Hashtbl.find_opt s.capacity key) in
      if u > cap *. (1.0 +. 1e-9) +. 1e-9 && !over = None then
        over := Some (Printf.sprintf "%s on element %d: used %g > capacity %g" (fst key) (snd key) u cap))
    lines;
  Hashtbl.replace s.charges id lines;
  !over

let shadow_release s ~id =
  match Hashtbl.find_opt s.charges id with
  | None -> false
  | Some lines ->
      List.iter
        (fun (key, d) ->
          let u = Option.value ~default:0.0 (Hashtbl.find_opt s.used key) -. d in
          Hashtbl.replace s.used key u)
        lines;
      Hashtbl.remove s.charges id;
      true

(* ------------------------------------------------------------------ *)
(* Checker                                                             *)
(* ------------------------------------------------------------------ *)

type t = {
  w : Workload.t;
  host : Graph.t;
  problems : Problem.t option array;  (** per template, over the base host *)
  pinned : int option array;  (** expected EMBED count per template *)
  verified : (int * string, unit) Hashtbl.t;
  shadow : shadow option;
  mutable wrong : int;
  mutable messages : string list;  (** first few wrong-answer reasons *)
}

let problem_of host (r : Request.t) =
  match Request.parse_constraints r with
  | Error m -> failwith ("bad template constraint: " ^ m)
  | Ok (edge_constraint, node_constraint) ->
      Problem.make ?node_constraint ~host ~query:r.Request.query edge_constraint

(* Expected EMBED counts: the model of hard and tiny never changes, so
   every answer must carry exactly the count an explain-off search of
   the base host finds. *)
let pin (w : Workload.t) problems =
  Array.mapi
    (fun i (tmpl : Workload.template) ->
      match (tmpl.Workload.verb, problems.(i), tmpl.Workload.request) with
      | Workload.Embed, Some p, Some r when w.Workload.kind <> Workload.Churn ->
          let options =
            { Engine.default_options with Engine.mode = r.Request.mode; collect = false }
          in
          let res = Engine.run ~options r.Request.algorithm p in
          if res.Engine.outcome <> Engine.Complete then
            failwith (Printf.sprintf "template %s did not complete at set-up" tmpl.Workload.label);
          Some
            (match r.Request.mode with
            | Engine.All -> res.Engine.found
            | Engine.First -> min 1 res.Engine.found
            | Engine.At_most k -> min k res.Engine.found)
      | _ -> None)
    w.Workload.pool

let create (w : Workload.t) ~host =
  let problems =
    Array.map
      (fun (tmpl : Workload.template) -> Option.map (problem_of host) tmpl.Workload.request)
      w.Workload.pool
  in
  {
    w;
    host;
    problems;
    pinned = pin w problems;
    verified = Hashtbl.create 256;
    shadow = (if w.Workload.kind = Workload.Churn then Some (shadow_of_host host) else None);
    wrong = 0;
    messages = [];
  }

let wrong t msg =
  t.wrong <- t.wrong + 1;
  if List.length t.messages < 8 then t.messages <- msg :: t.messages

(* What a reply meant, for the client's accounting. *)
type verdict =
  | Answer of { placed : bool; allocation : int option }
  | Freed
  | Shed  (** backpressure reject from a saturated admission queue *)
  | Failed of string  (** protocol error or unexpected ERR *)
  | Wrong of string  (** an answer that fails its check *)

let first_line body =
  match String.index_opt body '\n' with Some i -> String.sub body 0 i | None -> body

let starts_with p s = String.length s >= String.length p && String.sub s 0 (String.length p) = p

let token key line =
  let k = " " ^ key ^ "=" in
  let n = String.length line and m = String.length k in
  let rec find i =
    if i + m > n then None
    else if String.sub line i m = k then
      let stop = match String.index_from_opt line (i + m) ' ' with Some j -> j | None -> n in
      Some (String.sub line (i + m) (stop - i - m))
    else find (i + 1)
  in
  find 0

let mapping_lines body =
  match String.index_opt body '\n' with
  | Some i -> String.sub body (i + 1) (String.length body - i - 1)
  | None -> ""

let verify_mappings t tmpl (decoded : Wire.decoded_answer) =
  match t.problems.(tmpl) with
  | None -> Some "no problem for template"
  | Some p ->
      let bad = ref None in
      List.iter
        (fun assoc ->
          if !bad = None then begin
            let n = Graph.node_count p.Problem.query in
            let a = Array.make n (-1) in
            List.iter (fun (q, r) -> if q >= 0 && q < n then a.(q) <- r) assoc;
            if Array.exists (fun r -> r < 0) a || List.length assoc <> n then
              bad := Some "mapping does not cover the query"
            else
              match Verify.check p (Mapping.of_array a) with
              | Ok () -> ()
              | Error v -> bad := Some (Format.asprintf "%a" Verify.pp_violation v)
          end)
        decoded.Wire.mappings;
      !bad

(* Check an EMBED/ALLOC answer body against the template. *)
let check_answer t tmpl body =
  let tp = t.w.Workload.pool.(tmpl) in
  let header = first_line body in
  match Wire.decode_answer body with
  | Error m -> Failed ("undecodable answer: " ^ m)
  | Ok d ->
      let count = List.length d.Wire.mappings in
      let declared = Option.bind (token "count" header) int_of_string_opt in
      let verdict = Option.value ~default:"" d.Wire.verdict in
      let reason =
        if declared <> Some count then Some "count= disagrees with MAPPING lines"
        else if not ((verdict = "complete" && count > 0) || (verdict = "unsat" && count = 0)) then
          Some (Printf.sprintf "verdict %s with %d mappings" verdict count)
        else
          match t.pinned.(tmpl) with
          | Some pin when pin <> count ->
              Some (Printf.sprintf "%d mappings, %d pinned" count pin)
          | _ ->
              let key = (tmpl, mapping_lines body) in
              if count = 0 || Hashtbl.mem t.verified key then None
              else begin
                let r = verify_mappings t tmpl d in
                if r = None then Hashtbl.replace t.verified key ();
                r
              end
      in
      match reason with
      | Some r ->
          let msg = Printf.sprintf "%s: %s" tp.Workload.label r in
          wrong t msg;
          Wrong msg
      | None -> (
          match (tp.Workload.verb, t.shadow, d.Wire.allocation, d.Wire.mappings) with
          | Workload.Alloc, Some s, Some id, [ m ] -> (
              let query = (Option.get tp.Workload.request).Request.query in
              match shadow_commit s ~id (demand ~host:t.host ~query m) with
              | None -> Answer { placed = true; allocation = Some id }
              | Some over ->
                  let msg = Printf.sprintf "%s: committed ALLOC over-commits %s" tp.Workload.label over in
                  wrong t msg;
                  Wrong msg)
          | Workload.Alloc, _, Some _, _ ->
              let msg = tp.Workload.label ^ ": allocation with no single mapping" in
              wrong t msg;
              Wrong msg
          | Workload.Alloc, _, None, _ -> Answer { placed = false; allocation = None }
          | _ -> Answer { placed = count > 0; allocation = None })

let is_shed header =
  starts_with "ERR" header
  &&
  let needle = "server saturated" in
  let n = String.length header and m = String.length needle in
  let rec f i = i + m <= n && (String.sub header i m = needle || f (i + 1)) in
  f 0

(* Classify one reply to [item]. *)
let reply t (item : Workload.item) ~allocation body =
  let header = first_line body in
  if is_shed header then Shed
  else
    match item with
    | Workload.Free _ -> (
        match (allocation, token "freed" (" " ^ header)) with
        | Some id, Some s when starts_with "OK" header && int_of_string_opt s = Some id -> (
            match t.shadow with
            | Some sh when not (shadow_release sh ~id) ->
                let msg = Printf.sprintf "FREE %d of an allocation the shadow never saw" id in
                wrong t msg;
                Wrong msg
            | _ -> Freed)
        | _ -> Failed ("FREE: " ^ header))
    | Workload.Send { tmpl; _ } -> (
        let tp = t.w.Workload.pool.(tmpl) in
        match tp.Workload.verb with
        | Workload.Embed | Workload.Alloc ->
            if starts_with "OK" header then check_answer t tmpl body
            else Failed header
        | Workload.Util -> (
            match Wire.decode_utilization body with
            | Ok _ -> Answer { placed = false; allocation = None }
            | Error m -> Failed ("UTIL: " ^ m))
        | Workload.Top | Workload.Health ->
            if starts_with "OK" header then Answer { placed = false; allocation = None }
            else Failed header)

(* After the churn drain: every resource must read used=0, and the
   shadow must agree that nothing is held. *)
(* The tenant bookkeeping of the ALLOC/FREE protocol, shared by the TCP
   client and the in-process replay: [tenants] maps every tenant whose
   ALLOC was answered to its committed allocation id (None when nothing
   was placed), [live] the tenants holding an allocation. *)
let track ~tenants ~live (item : Workload.item) verdict =
  match (item, verdict) with
  | Workload.Send { tenant = Some i; _ }, Answer { allocation = Some id; _ } ->
      Hashtbl.replace tenants i (Some id);
      Hashtbl.replace live i id
  | Workload.Send { tenant = Some i; _ }, _ -> Hashtbl.replace tenants i None
  | Workload.Free i, _ -> Hashtbl.remove live i
  | Workload.Send { tenant = None; _ }, _ -> ()

let check_drained t body =
  match Wire.decode_utilization body with
  | Error m ->
      wrong t ("final UTIL: " ^ m);
      false
  | Ok rows ->
      let busy = List.filter (fun (r : Wire.utilization_row) -> r.Wire.used <> 0.0) rows in
      let held = match t.shadow with Some s -> Hashtbl.length s.charges | None -> 0 in
      if busy <> [] then
        wrong t
          (Printf.sprintf "final UTIL after drain: %s"
             (String.concat ", "
                (List.map (fun (r : Wire.utilization_row) -> Printf.sprintf "%s used=%g" r.Wire.resource r.Wire.used) busy)));
      if held > 0 then wrong t (Printf.sprintf "shadow ledger still holds %d allocations after drain" held);
      busy = [] && held = 0
