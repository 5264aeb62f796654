(* Versioned hosts: copy-on-write graph versions, the model's residual
   host, the filter repair that follows a host from one version to the
   next, and the service cache that repairs on hit. *)

module Graph = Netembed_graph.Graph
module Attrs = Netembed_attr.Attrs
module Value = Netembed_attr.Value
module Rng = Netembed_rng.Rng
module Ledger = Netembed_ledger.Ledger
module Model = Netembed_service.Model
module Request = Netembed_service.Request
module Service = Netembed_service.Service
module Engine = Netembed_core.Engine
module Problem = Netembed_core.Problem
module Filter = Netembed_core.Filter
module Mapping = Netembed_core.Mapping
module Expr = Netembed_expr.Expr
module Ast = Netembed_expr.Ast
module Telemetry = Netembed_telemetry.Telemetry

let check = Alcotest.check
let f x = Value.Float x

(* ------------------------------------------------------------------ *)
(* Graph versions                                                      *)
(* ------------------------------------------------------------------ *)

let weight g e = Attrs.float "w" (Graph.edge_attrs g e)
let w x = Attrs.of_list [ ("w", f x) ]

(* A path long enough to span several attribute chunks. *)
let long_path n =
  let g = Graph.create () in
  let v = Array.init n (fun _ -> Graph.add_node g Attrs.empty) in
  for i = 0 to n - 2 do
    ignore (Graph.add_edge g v.(i) v.(i + 1) (w (float_of_int i)))
  done;
  g

let test_derive_isolates () =
  let g = long_path 700 in
  let h = Graph.derive g in
  Graph.set_edge_attrs h 300 (w (-1.0));
  check Alcotest.(option (float 0.0)) "parent unchanged" (Some 300.0) (weight g 300);
  check Alcotest.(option (float 0.0)) "version written" (Some (-1.0)) (weight h 300);
  (* The parent writes copy-on-write too: the version must not see it. *)
  Graph.set_edge_attrs g 10 (w (-2.0));
  check Alcotest.(option (float 0.0)) "version unchanged" (Some 10.0) (weight h 10);
  check Alcotest.(list int) "changed edges" [ 10; 300 ] (Graph.changed_edges ~since:g h);
  check Alcotest.(list int) "no changed nodes" [] (Graph.changed_nodes ~since:g h);
  check Alcotest.bool "pair index shared" true (Graph.find_edge h 5 6 = Graph.find_edge g 5 6)

let raises name f =
  match f () with
  | () -> Alcotest.failf "%s: expected Invalid_argument" name
  | exception Invalid_argument _ -> ()

let test_frozen_and_shared_reject_writes () =
  let g = long_path 5 in
  let h = Graph.derive g in
  Graph.freeze h;
  raises "set on frozen" (fun () -> Graph.set_edge_attrs h 0 (w 1.0));
  raises "set node on frozen" (fun () -> Graph.set_node_attrs h 0 Attrs.empty);
  raises "add_node on shared topology" (fun () -> ignore (Graph.add_node g Attrs.empty));
  raises "add_edge on shared topology" (fun () -> ignore (Graph.add_edge g 0 4 Attrs.empty));
  raises "add_node on a derived version" (fun () ->
      ignore (Graph.add_node (Graph.derive h) Attrs.empty));
  raises "diff across topologies" (fun () ->
      ignore (Graph.changed_edges ~since:g (long_path 5)));
  (* A deep copy is a fresh topology again. *)
  let c = Graph.copy h in
  ignore (Graph.add_node c Attrs.empty);
  check Alcotest.int "copy grows" 6 (Graph.node_count c)

(* ------------------------------------------------------------------ *)
(* Random capacity-carrying hosts and model histories                  *)
(* ------------------------------------------------------------------ *)

let random_host rng ~directed =
  let kind = if directed then Graph.Directed else Graph.Undirected in
  let g = Graph.create ~kind ~name:"host" () in
  let n = 5 + Rng.int rng 5 in
  for _ = 1 to n do
    ignore
      (Graph.add_node g
         (Attrs.of_list
            [
              ("cpuMhz", Value.Int (1000 + (500 * Rng.int rng 4)));
              ("memMB", Value.Int (1024 * (1 + Rng.int rng 2)));
              ("load", f (Rng.float rng 1.0));
            ]))
  done;
  let edges = n + Rng.int rng (2 * n) in
  for _ = 1 to edges do
    let u = Rng.int rng n and v = Rng.int rng n in
    (* Parallel host edges are allowed on purpose. *)
    if u <> v then
      ignore
        (Graph.add_edge g u v
           (Attrs.of_list
              [
                ("bandwidth", f (float_of_int (20 + (20 * Rng.int rng 4))));
                ("avgDelay", f (float_of_int (5 + Rng.int rng 30)));
              ]))
  done;
  g

let random_query rng ~directed =
  let kind = if directed then Graph.Directed else Graph.Undirected in
  let g = Graph.create ~kind ~name:"q" () in
  let n = 2 + Rng.int rng 3 in
  for _ = 1 to n do
    ignore
      (Graph.add_node g
         (Attrs.of_list
            [
              ("cpuMhz", Value.Int (300 * (1 + Rng.int rng 4)));
              ("memMB", Value.Int 256);
            ]))
  done;
  let edge () =
    Attrs.of_list
      [
        ("bandwidth", f (float_of_int (10 + (10 * Rng.int rng 4))));
        ("maxDelay", f (float_of_int (10 + Rng.int rng 25)));
      ]
  in
  (* A spanning path, then extra edges — some of them parallel. *)
  for i = 1 to n - 1 do
    ignore (Graph.add_edge g (i - 1) i (edge ()))
  done;
  for _ = 1 to Rng.int rng 3 do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then ignore (Graph.add_edge g u v (edge ()))
  done;
  g

(* Edge constraints: edge-only ones, and ones reading the host
   endpoints (orientation-sensitive, some asymmetric). *)
let edge_constraints =
  [|
    "rEdge.avgDelay <= vEdge.maxDelay";
    "rEdge.bandwidth >= vEdge.bandwidth && rEdge.avgDelay <= vEdge.maxDelay";
    "rSource.cpuMhz >= vSource.cpuMhz && rEdge.bandwidth >= vEdge.bandwidth";
    "rTarget.cpuMhz + rSource.memMB >= vTarget.cpuMhz + 1500";
  |]

let node_constraints =
  [| None; Some "rSource.cpuMhz >= vSource.cpuMhz"; Some "rSource.load <= 0.6" |]

let reservation_guard = Expr.parse_exn "!rSource.reserved"

let random_problem_spec rng =
  let edge = Expr.parse_exn (Rng.pick rng edge_constraints) in
  let node =
    match Rng.pick rng node_constraints with
    | None -> reservation_guard
    | Some c -> Ast.Binop (Ast.And, reservation_guard, Expr.parse_exn c)
  in
  (edge, node)

(* A small tenant the model charges: one or two nodes with cpu demand,
   a bandwidth demand on the edge between them. *)
let tenant rng ~directed =
  let kind = if directed then Graph.Directed else Graph.Undirected in
  let g = Graph.create ~kind () in
  let node () = Attrs.of_list [ ("cpuMhz", Value.Int (100 * (1 + Rng.int rng 8))) ] in
  let a = Graph.add_node g (node ()) in
  if Rng.bool rng then begin
    let b = Graph.add_node g (node ()) in
    ignore (Graph.add_edge g a b (Attrs.of_list [ ("bandwidth", f (float_of_int (5 + Rng.int rng 30))) ]))
  end;
  g

(* An injective placement of [query] on the host: a random edge for a
   two-node tenant (so its bandwidth demand is chargeable), random
   nodes otherwise. *)
let placement rng host query =
  let n = Graph.node_count host in
  if Graph.node_count query = 1 then Some (Mapping.of_array [| Rng.int rng n |])
  else if Graph.edge_count host = 0 then None
  else
    let _, u, v = (Graph.edges host).(Rng.int rng (Graph.edge_count host)) in
    Some (Mapping.of_array [| u; v |])

(* One random model operation: monitor updates, reservations and
   releases, ledger commits, releases and migrations. *)
let random_op rng model ~directed live =
  let host = Model.snapshot model in
  let n = Graph.node_count host in
  match Rng.int rng 7 with
  | 0 when Graph.edge_count host > 0 ->
      Model.update_edge_attrs model
        (Rng.int rng (Graph.edge_count host))
        (Attrs.of_list [ ("avgDelay", f (float_of_int (5 + Rng.int rng 30))) ])
  | 1 -> Model.update_node_attrs model (Rng.int rng n) (Attrs.of_list [ ("load", f (Rng.float rng 1.0)) ])
  | 2 -> (
      let v = Rng.int rng n in
      if Model.is_reserved model v then Model.release model [ v ]
      else try Model.reserve model [ v ] with Model.Conflict _ -> ())
  | 3 | 4 -> (
      let q = tenant rng ~directed in
      match placement rng host q with
      | Some m -> (
          match Model.charge_mapping model ~query:q m with
          | Ok id -> live := (id, q) :: !live
          | Error _ -> ())
      | None -> ())
  | 5 -> (
      match !live with
      | [] -> ()
      | (id, _) :: rest ->
          ignore (Model.release_charge model id);
          live := rest)
  | _ -> (
      match !live with
      | [] -> ()
      | (id, q) :: rest -> (
          match placement rng host q with
          | Some m -> (
              match Model.migrate_charge model id ~query:q m with
              | Ok id' -> live := (id', q) :: rest
              | Error _ -> ())
          | None -> ()))

let attrs_equal g h =
  Graph.node_count g = Graph.node_count h
  && Graph.edge_count g = Graph.edge_count h
  && Graph.fold_nodes (fun v ok -> ok && Attrs.equal (Graph.node_attrs g v) (Graph.node_attrs h v)) g true
  && Graph.fold_edges
       (fun e _ _ ok -> ok && Attrs.equal (Graph.edge_attrs g e) (Graph.edge_attrs h e))
       g true

(* After any history, the published residual host equals the
   whole-graph oracle, and every snapshot handed out earlier still
   equals the oracle of its own time. *)
let prop_residual_matches_oracle =
  QCheck.Test.make ~name:"residual snapshot = Ledger.residual_graph oracle; old snapshots frozen"
    ~count:300 (QCheck.int_bound 1_000_000_000) (fun seed ->
      let rng = Rng.make seed in
      let directed = Rng.int rng 4 = 0 in
      let model = Model.create (random_host rng ~directed) in
      let live = ref [] in
      let oracle () =
        Ledger.residual_graph ~base:(Model.snapshot model) (Model.ledger model)
      in
      let history = ref [] in
      for _ = 1 to 12 do
        for _ = 1 to 1 + Rng.int rng 4 do
          random_op rng model ~directed live
        done;
        let snap = Model.residual_snapshot model in
        (match Graph.set_node_attrs snap 0 Attrs.empty with
        | () -> QCheck.Test.fail_report "snapshot is writable"
        | exception Invalid_argument _ -> ());
        if not (attrs_equal snap (oracle ())) then
          QCheck.Test.fail_report "snapshot differs from the oracle";
        history := (snap, oracle ()) :: !history
      done;
      List.for_all (fun (snap, expected) -> attrs_equal snap expected) !history)

let test_snapshot_allocates_nothing () =
  let model = Model.create (random_host (Rng.make 3) ~directed:false) in
  Model.reserve model [ 0 ];
  (* A pending change is published by the read itself; the read still
     allocates nothing. *)
  let before = Gc.minor_words () in
  let s1 = Model.residual_snapshot model in
  let s2 = Model.residual_snapshot model in
  let allocated = Gc.minor_words () -. before in
  check (Alcotest.float 0.0) "minor words per snapshot read" 0.0 allocated;
  check Alcotest.bool "no change, same version" true (s1 == s2);
  Model.release model [ 0 ];
  check Alcotest.bool "a change publishes a new version" true
    (Model.residual_snapshot model != s1)

(* ------------------------------------------------------------------ *)
(* Filter repair                                                       *)
(* ------------------------------------------------------------------ *)

(* A filter built on one version and repaired along a random history of
   versions always equals a fresh build on the current one, and the
   search over it finds what brute force finds.  Queries carry parallel
   edges, hosts parallel links; constraints read rSource/rTarget or not;
   the history mixes reservations, monitor updates, commits, releases
   and migrations. *)
let prop_repair_equals_build =
  QCheck.Test.make ~name:"Filter.repair ~since:g0 p1 = Filter.build p1" ~count:500
    (QCheck.int_bound 1_000_000_000) (fun seed ->
      let rng = Rng.make (1000 + seed) in
      let directed = Rng.bool rng in
      let model = Model.create (random_host rng ~directed) in
      let query = random_query rng ~directed in
      let edge, node_constraint = random_problem_spec rng in
      let ordering = Rng.pick rng [| Filter.Connected_lemma1; Filter.Lemma1; Filter.Input_order |] in
      let problem host = Problem.make ~node_constraint ~host ~query edge in
      let live = ref [] in
      let since = ref (Model.residual_snapshot model) in
      let filter = ref (Filter.build ~ordering (problem !since)) in
      for step = 1 to 4 do
        for _ = 1 to Rng.int rng 4 do
          random_op rng model ~directed live
        done;
        let host = Model.residual_snapshot model in
        let p = problem host in
        let repaired = Filter.repair !filter ~since:!since p in
        let built = Filter.build ~ordering ~prefilter:(Rng.bool rng) p in
        if not (Filter.equal repaired built) then
          QCheck.Test.fail_reportf "repair differs from build at step %d" step;
        since := host;
        filter := repaired
      done;
      (* Both could be wrong alike: the search over the repaired filter
         must also find exactly what brute force finds. *)
      let p = problem !since in
      let sorted l = List.sort_uniq Mapping.compare l in
      let found =
        (Engine.run
           ~options:{ Engine.default_options with Engine.mode = Engine.All }
           ~filter:!filter Engine.ECF p)
          .Engine.mappings
      in
      if sorted found <> sorted (Netembed_baselines.Bruteforce.find_all p) then
        QCheck.Test.fail_report "search over the repaired filter differs from brute force";
      true)

(* ------------------------------------------------------------------ *)
(* The service cache under churn                                       *)
(* ------------------------------------------------------------------ *)

let churn_host () =
  let g = Graph.create ~name:"ring" () in
  let v =
    Array.init 6 (fun _ ->
        Graph.add_node g (Attrs.of_list [ ("cpuMhz", Value.Int 1000); ("memMB", Value.Int 1024) ]))
  in
  for i = 0 to 5 do
    ignore
      (Graph.add_edge g v.(i) v.((i + 1) mod 6)
         (Attrs.of_list [ ("avgDelay", f 10.0); ("bandwidth", f 100.0) ]))
  done;
  g

let churn_request () =
  let q = Graph.create ~name:"pair" () in
  (* More than half a host's cpu: a placed tenant rules its hosts out. *)
  let node = Attrs.of_list [ ("cpuMhz", Value.Int 600); ("memMB", Value.Int 128) ] in
  let a = Graph.add_node q node and b = Graph.add_node q node in
  ignore (Graph.add_edge q a b (Attrs.of_list [ ("bandwidth", f 10.0); ("maxDelay", f 50.0) ]));
  Request.make ~algorithm:Engine.ECF ~mode:Engine.First
    ~node_constraint:"rSource.cpuMhz >= vSource.cpuMhz"
    ~query:q "rEdge.avgDelay <= vEdge.maxDelay && rEdge.bandwidth >= vEdge.bandwidth"

(* A repeated ECF ALLOC after an intervening commit hits the cache: the
   filter is repaired, never rebuilt, nothing is recompiled, and the
   answer is the one a cold service gives on the same ledger state. *)
let test_alloc_after_commit_hits () =
  let registry = Telemetry.Registry.create () in
  let svc = Service.create ~registry (Model.create (churn_host ())) in
  let counter name = Telemetry.Counter.value (Telemetry.Registry.counter registry name) in
  let request = churn_request () in
  let alloc svc =
    match Service.submit svc request with
    | Error m -> Alcotest.fail m
    | Ok a -> (
        match a.Service.result.Engine.mappings with
        | [] -> Alcotest.fail "no mapping"
        | m :: _ -> (
            match Service.allocate_shared svc a m with
            | Ok _ -> m
            | Error e -> Alcotest.fail e))
  in
  let first = alloc svc in
  check Alcotest.int "cold miss" 1 (counter "netembed_filter_cache_misses_total");
  let builds = Filter.builds_total () and compiles = Netembed_expr.Compile.compiles_total () in
  let warm = alloc svc in
  check Alcotest.int "hit after the commit" 1 (counter "netembed_filter_cache_hits_total");
  check Alcotest.int "no further miss" 1 (counter "netembed_filter_cache_misses_total");
  check Alcotest.int "no Filter.build" builds (Filter.builds_total ());
  check Alcotest.int "no compilation" compiles (Netembed_expr.Compile.compiles_total ());
  check Alcotest.int "entry repaired in place" 1
    (Netembed_service.Filter_cache.invalidations (Service.filter_cache svc));
  check Alcotest.bool "the commit moved the tenant" false (Mapping.equal first warm);
  (* A fresh service with the first tenant committed by hand builds its
     filter cold on the same ledger state: same answer. *)
  let cold_svc = Service.create (Model.create (churn_host ())) in
  (match Model.charge_mapping (Service.model cold_svc) ~query:request.Request.query first with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check Alcotest.bool "warm (repaired) = cold answer" true (Mapping.equal warm (alloc cold_svc))

let () =
  Alcotest.run "versions"
    [
      ( "graph versions",
        [
          Alcotest.test_case "derive isolates writes" `Quick test_derive_isolates;
          Alcotest.test_case "frozen and shared reject writes" `Quick
            test_frozen_and_shared_reject_writes;
        ] );
      ( "residual host",
        [
          QCheck_alcotest.to_alcotest prop_residual_matches_oracle;
          Alcotest.test_case "snapshot read allocates nothing" `Quick
            test_snapshot_allocates_nothing;
        ] );
      ("filter repair", [ QCheck_alcotest.to_alcotest prop_repair_equals_build ]);
      ( "service cache",
        [ Alcotest.test_case "ALLOC after a commit repairs, never rebuilds" `Quick test_alloc_after_commit_hits ] );
    ]
