(* The traced run: per-layer metrics.

   The workload's exact stream is replayed closed-loop on one domain
   through the calls the server's handler makes —
   Wire.decode_command -> Service.submit -> Service.allocate_shared /
   Service.free -> Wire.encode_answer — with a span around each call.
   Outside those spans, on the same inputs and ledger state, probe
   calls on every other block of the mix time the sub-layers:
   Ledger.admissible, Model.residual_snapshot, Problem.make,
   Filter.build and Engine.run with explain off and on over the same
   problem and filter.  The same items are then replayed once more
   without spans, from the same state, for the tracing overhead.

   A short end-to-end run against the real server comes first, for the
   metrics that need the wire: loadgen.late_ms, frontend.overhead_ms and
   frontend.shed_ratio. *)

module W = Workload
module Service = Netembed_service.Service
module Model = Netembed_service.Model
module Request = Netembed_service.Request
module Wire = Netembed_service.Wire
module Health = Netembed_service.Health
module Filter_cache = Netembed_service.Filter_cache
module Engine = Netembed_core.Engine
module Problem = Netembed_core.Problem
module Filter = Netembed_core.Filter
module Ledger = Netembed_ledger.Ledger
module Telemetry = Netembed_telemetry.Telemetry
module Expr = Netembed_expr.Expr
module Ast = Netembed_expr.Ast

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

type span = { name : string; req : int; start : float; dur : float; minor_words : float }

(* Mean-based accumulators: per-request costs add up (submit = phased
   + unphased), which medians would not. *)
type acc = { mutable sum : float; mutable n : int }

let acc () = { sum = 0.0; n = 0 }
let add a x = a.sum <- a.sum +. x; a.n <- a.n + 1
let mean a = if a.n = 0 then 0.0 else a.sum /. float_of_int a.n

let timed f =
  let m0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  (r, dt, Gc.minor_words () -. m0)

(* ------------------------------------------------------------------ *)
(* The handler                                                         *)
(* ------------------------------------------------------------------ *)

type env = {
  w : W.t;
  model : Model.t;
  svc : Service.t;
  registry : Telemetry.Registry.t;
  checker : Check.t;
  tenants : (int, int option) Hashtbl.t;
  live : (int, int) Hashtbl.t;
}

let env w ~host =
  let registry = Telemetry.Registry.create () in
  let model = Model.create host in
  {
    w;
    model;
    svc = Service.create ~registry model;
    registry;
    checker = Check.create w ~host;
    tenants = Hashtbl.create 1024;
    live = Hashtbl.create 64;
  }

type hooks = {
  span : 'a. string -> (unit -> 'a) -> 'a;
  before_submit : Request.t -> unit;  (** probes, outside every span *)
  after_submit : Request.t -> Service.answer -> unit;
}

let plain =
  { span = (fun _ f -> f ()); before_submit = (fun _ -> ()); after_submit = (fun _ _ -> ()) }

(* The server handler's dispatch (bin/netembed_server.ml), call for
   call, minus the transport. *)
let handle env h frame =
  let svc = env.svc in
  let submit r =
    h.before_submit r;
    let a = h.span "service.submit" (fun () -> Service.submit svc r) in
    (match a with Ok a -> h.after_submit r a | Error _ -> ());
    a
  in
  match h.span "wire.decode" (fun () -> Wire.decode_command frame) with
  | Error e -> Wire.encode_error e
  | Ok (Wire.Submit r) -> (
      match submit r with
      | Error e -> Wire.encode_error e
      | Ok a -> h.span "wire.encode" (fun () -> Wire.encode_answer a))
  | Ok (Wire.Allocate r) -> (
      match submit r with
      | Error e -> Wire.encode_error e
      | Ok a -> (
          match a.Service.result.Engine.mappings with
          | [] -> h.span "wire.encode" (fun () -> Wire.encode_answer a)
          | m :: _ -> (
              match h.span "service.allocate_shared" (fun () -> Service.allocate_shared svc a m) with
              | Ok id -> h.span "wire.encode" (fun () -> Wire.encode_answer ~allocation:id a)
              | Error e -> Wire.encode_error ~id:a.Service.id e)))
  | Ok (Wire.Free id) ->
      if h.span "service.free" (fun () -> Service.free svc id) then
        h.span "wire.encode" (fun () -> Wire.encode_freed id)
      else Wire.encode_error (Printf.sprintf "unknown allocation %d" id)
  | Ok Wire.Utilization ->
      let rows = Service.utilization svc in
      h.span "wire.encode" (fun () -> Wire.encode_utilization rows)
  | Ok Wire.Top ->
      let top = Service.top svc in
      h.span "wire.encode" (fun () -> Wire.encode_top top)
  | Ok Wire.Health ->
      let r = Health.report (Service.health svc) in
      h.span "wire.encode" (fun () -> Wire.encode_health r)
  | Ok (Wire.Explain _) -> Wire.encode_error "not replayed"

(* Resolve a stream item to its frame (FREEs name the allocation the
   replay's own ALLOC committed); [None] skips a FREE whose ALLOC
   placed nothing. *)
let frame_of env = function
  | W.Send { tmpl; _ } -> Some (env.w.W.pool.(tmpl).W.frame, None)
  | W.Free i -> (
      match Hashtbl.find_opt env.tenants i with
      | Some (Some id) -> Some (Printf.sprintf "FREE %d\n.\n" id, Some id)
      | _ -> None)

(* Check the reply and track tenants, as the TCP client does. *)
let settle env item ~alloc reply =
  let v = Check.reply env.checker item ~allocation:alloc reply in
  Check.track ~tenants:env.tenants ~live:env.live item v;
  match v with Check.Failed _ | Check.Shed -> 1 | _ -> 0

(* ------------------------------------------------------------------ *)
(* Probes                                                              *)
(* ------------------------------------------------------------------ *)

type layer = {
  decode_us : acc;
  encode_us : acc;
  reply_bytes : acc;
  submit_ms : acc;
  unphased_ms : acc;
  submit_minor_kw : acc;
  snapshot_ms : acc;
  snapshot_minor_kw : acc;
  admissible_us : acc;
  commit_us : acc;
  release_us : acc;
  mutable ledger_decisions : int;
  mutable ledger_rejects : int;
  make_ms : acc;
  evals : acc;
  build_ms : acc;
  build_minor_kw : acc;
  search_ms : acc;
  visited : acc;
  search_minor_words : acc;
  explain_extra_ms : acc;
  explain_minor_kw : acc;
  handler_ms : float list ref;
}

let layer () =
  {
    decode_us = acc ();
    encode_us = acc ();
    reply_bytes = acc ();
    submit_ms = acc ();
    unphased_ms = acc ();
    submit_minor_kw = acc ();
    snapshot_ms = acc ();
    snapshot_minor_kw = acc ();
    admissible_us = acc ();
    commit_us = acc ();
    release_us = acc ();
    ledger_decisions = 0;
    ledger_rejects = 0;
    make_ms = acc ();
    evals = acc ();
    build_ms = acc ();
    build_minor_kw = acc ();
    search_ms = acc ();
    visited = acc ();
    search_minor_words = acc ();
    explain_extra_ms = acc ();
    explain_minor_kw = acc ();
    handler_ms = ref [];
  }

let reservation_guard = Expr.parse_exn "!rSource.reserved"

(* Sub-layer probes on the state the coming submit will see. *)
let probe env l (r : Request.t) ~deep =
  let ledger = Model.ledger env.model in
  let adm, dt, _ = timed (fun () -> Ledger.admissible ledger ~query:r.Request.query) in
  add l.admissible_us (dt *. 1e6);
  l.ledger_decisions <- l.ledger_decisions + 1;
  (match adm with Error _ -> l.ledger_rejects <- l.ledger_rejects + 1 | Ok () -> ());
  if deep then
    match Request.parse_constraints r with
    | Error _ -> ()
    | Ok (edge_constraint, node_constraint) ->
        let snap, dt, mw = timed (fun () -> Model.residual_snapshot env.model) in
        add l.snapshot_ms (dt *. 1e3);
        add l.snapshot_minor_kw (mw /. 1e3);
        let node_constraint =
          match node_constraint with
          | None -> reservation_guard
          | Some c -> Ast.Binop (Ast.And, reservation_guard, c)
        in
        let p, dt, _ =
          timed (fun () ->
              let p = Problem.make ~node_constraint ~host:snap ~query:r.Request.query edge_constraint in
              Problem.prepare p;
              p)
        in
        add l.make_ms (dt *. 1e3);
        let filter =
          match r.Request.algorithm with
          | Engine.LNS -> None
          | Engine.ECF | Engine.RWB ->
              let f, dt, mw = timed (fun () -> Filter.build p) in
              add l.build_ms (dt *. 1e3);
              add l.build_minor_kw (mw /. 1e3);
              Some f
        in
        let run explain =
          let options =
            { Engine.default_options with Engine.mode = r.Request.mode; timeout = r.Request.timeout; explain }
          in
          timed (fun () -> Engine.run ~options ?filter r.Request.algorithm p)
        in
        let off, t_off, mw_off = run false in
        let _, t_on, mw_on = run true in
        add l.search_ms (t_off *. 1e3);
        add l.visited (float_of_int off.Engine.visited);
        add l.search_minor_words mw_off;
        add l.explain_extra_ms ((t_on -. t_off) *. 1e3);
        add l.explain_minor_kw ((mw_on -. mw_off) /. 1e3)

(* Ledger commit/release probe for workloads that send no ALLOC: the
   answer's first mapping (or an empty charge) committed and released
   at once, leaving the ledger as it was. *)
let probe_commit env l (r : Request.t) (a : Service.answer) =
  let ledger = Model.ledger env.model in
  let charge =
    match a.Service.result.Engine.mappings with
    | m :: _ -> (
        match Ledger.charge_of_mapping ledger ~query:r.Request.query m with Ok c -> c | Error _ -> [])
    | [] -> []
  in
  let res, dt, _ = timed (fun () -> Ledger.try_commit ledger charge) in
  add l.commit_us (dt *. 1e6);
  l.ledger_decisions <- l.ledger_decisions + 1;
  match res with
  | Error _ -> l.ledger_rejects <- l.ledger_rejects + 1
  | Ok id ->
      let _, dt, _ = timed (fun () -> Ledger.release ledger id) in
      add l.release_us (dt *. 1e6)

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

let warm env =
  let n = E2e.warm_items env.w in
  for k = 0 to n - 1 do
    let item = W.item env.w k in
    match frame_of env item with
    | Some (frame, alloc) -> ignore (settle env item ~alloc (handle env plain frame))
    | None -> ()
  done;
  n

let counter env name = Telemetry.Counter.value (Telemetry.Registry.counter env.registry name)

type traced = {
  l : layer;
  spans : span list;
  items : int;  (** stream items replayed after the warm-up *)
  k0 : int;
  handled : int;  (** items that produced a request *)
  traced_handler_s : float list;  (** per handled item, in order *)
  hits : int;
  misses : int;
  invalidations : int;
  failures : int;
}

let traced_pass env ~budget_s =
  let w = env.w in
  let k0 = warm env in
  let l = layer () in
  let spans = ref [] in
  let req = ref 0 in
  let probe_s = ref 0.0 in
  (* Deep probes cover every other block of the mix, so the probed
     requests have the workload's composition. *)
  let deep = ref true in
  let churn = w.W.kind = W.Churn in
  let span_fn : 'a. string -> (unit -> 'a) -> 'a =
   fun name f ->
    let r, dt, mw = timed f in
    spans := { name; req = !req; start = now () -. dt; dur = dt; minor_words = mw } :: !spans;
    (match name with
    | "wire.decode" -> add l.decode_us (dt *. 1e6)
    | "wire.encode" -> add l.encode_us (dt *. 1e6)
    | "service.submit" ->
        add l.submit_ms (dt *. 1e3);
        add l.submit_minor_kw (mw /. 1e3)
    | "service.allocate_shared" -> add l.commit_us (dt *. 1e6)
    | "service.free" -> add l.release_us (dt *. 1e6)
    | _ -> ());
    r
  in
  let in_probe f =
    let t0 = now () in
    f ();
    probe_s := !probe_s +. (now () -. t0)
  in
  let hooks =
    {
      span = span_fn;
      before_submit =
        (fun r -> in_probe (fun () -> probe env l r ~deep:!deep));
      after_submit =
        (fun r a ->
          let phased = Array.fold_left ( +. ) 0.0 a.Service.result.Engine.telemetry.Telemetry.phases in
          (match !spans with
          | { name = "service.submit"; dur; _ } :: _ -> add l.unphased_ms ((dur -. phased) *. 1e3)
          | _ -> ());
          add l.evals (float_of_int a.Service.result.Engine.filter_evals);
          in_probe (fun () -> if not churn then probe_commit env l r a));
    }
  in
  let hits0 = counter env "netembed_filter_cache_hits_total" in
  let misses0 = counter env "netembed_filter_cache_misses_total" in
  let inv0 = Filter_cache.invalidations (Service.filter_cache env.svc) in
  let per_item = ref [] in
  let failures = ref 0 in
  let t_end = now () +. budget_s in
  let k = ref k0 in
  while now () < t_end do
    let item = W.item w !k in
    deep := (!k - k0) / W.block_items w mod 2 = 0;
    incr k;
    match frame_of env item with
    | None -> ()
    | Some (frame, alloc) ->
        incr req;
        let p0 = !probe_s in
        let t0 = now () in
        let reply = handle env hooks frame in
        let dt = now () -. t0 -. (!probe_s -. p0) in
        per_item := dt :: !per_item;
        l.handler_ms := (dt *. 1e3) :: !(l.handler_ms);
        spans := { name = "request"; req = !req; start = t0; dur = dt; minor_words = 0.0 } :: !spans;
        add l.reply_bytes (float_of_int (String.length reply));
        (match (item, String.length reply > 3 && String.sub reply 0 3 = "ERR", alloc) with
        | W.Send { tmpl; _ }, true, _ when w.W.pool.(tmpl).W.verb = W.Alloc ->
            l.ledger_rejects <- l.ledger_rejects + 1
        | _ -> ());
        if churn then
          (match item with
          | W.Send { tmpl; _ } when w.W.pool.(tmpl).W.verb = W.Alloc ->
              l.ledger_decisions <- l.ledger_decisions + 1
          | _ -> ());
        failures := !failures + settle env item ~alloc reply
  done;
  {
    l;
    spans = List.rev !spans;
    items = !k - k0;
    k0;
    handled = !req;
    traced_handler_s = List.rev !per_item;
    hits = counter env "netembed_filter_cache_hits_total" - hits0;
    misses = counter env "netembed_filter_cache_misses_total" - misses0;
    invalidations = Filter_cache.invalidations (Service.filter_cache env.svc) - inv0;
    failures = !failures + env.checker.Check.wrong;
  }

(* The same items without spans or probes: per-item handler time and
   major collections.  [env] must be in the state the traced pass
   started from. *)
let untraced_pass env ~k0 ~items =
  let w = env.w in
  let times = ref [] in
  let g0 = (Gc.quick_stat ()).Gc.major_collections in
  let failures = ref 0 in
  for k = k0 to k0 + items - 1 do
    let item = W.item w k in
    match frame_of env item with
    | None -> ()
    | Some (frame, alloc) ->
        let t0 = now () in
        let reply = handle env plain frame in
        times := (now () -. t0) :: !times;
        failures := !failures + settle env item ~alloc reply
  done;
  let majors = (Gc.quick_stat ()).Gc.major_collections - g0 in
  (List.rev !times, majors, !failures + env.checker.Check.wrong)

let write_spans ~out kind spans =
  let file = Filename.concat out (Printf.sprintf "spans-%s.jsonl" (W.kind_name kind)) in
  let oc = open_out file in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\":%S,\"req\":%d,\"parent\":%s,\"start_us\":%.1f,\"dur_us\":%.3f,\"minor_words\":%.0f}\n"
        s.name s.req
        (if s.name = "request" then "null" else "\"request\"")
        (s.start *. 1e6) (s.dur *. 1e6) s.minor_words)
    spans;
  close_out oc

let median_of f n =
  Client.median (List.init n (fun _ -> let _, dt, _ = timed f in dt))

let run (w : W.t) ~host ~seconds ~server_bin ~host_file ~clk_tck ~out =
  (* The wire-side metrics: a shortened end-to-end run. *)
  let e2e_checker = Check.create w ~host in
  let e =
    E2e.run w e2e_checker
      ~budget:
        { E2e.rounds = max 1 (min 2 (int_of_float (seconds /. (2.0 *. E2e.round_s)))); knee_fractions = [ 0.7; 0.95 ]; probe_blocks = 2; spawns = 1 }
      ~server_bin ~host_file ~clk_tck ~log:(Filename.concat out "server.log")
  in
  List.iter (fun m -> prerr_endline ("nebench: wrong answer: " ^ m)) e.E2e.messages;
  (* Set-up layers. *)
  let graphml_s = median_of (fun () -> ignore (Netembed_graphml.Graphml.read_file host_file)) 3 in
  let model_s = median_of (fun () -> ignore (Model.create host)) 3 in
  let traced_env = env w ~host in
  let t = traced_pass traced_env ~budget_s:(0.3 *. seconds) in
  write_spans ~out w.W.kind t.spans;
  (* hard and tiny never change the model: after the warm-up their
     state is a fixed point (full filter cache), so the untraced pass
     can replay the same items on the same service.  churn's ledger
     moved on, so it replays on a fresh, warmed service. *)
  let plain_env =
    match w.W.kind with
    | W.Churn ->
        let e = env w ~host in
        ignore (warm e);
        e
    | W.Hard | W.Tiny -> traced_env
  in
  let plain_times, majors, plain_failures = untraced_pass plain_env ~k0:t.k0 ~items:t.items in
  let sum = List.fold_left ( +. ) 0.0 in
  let l = t.l in
  let per_visit x = if l.visited.sum > 0.0 then x /. l.visited.sum else 0.0 in
  let lookups = t.hits + t.misses in
  let handled = max 1 t.handled in
  let handler_p50 = Client.median !(l.handler_ms) in
  let metrics =
    [
      ("loadgen.late_ms", e.E2e.late_p90_ms, "ms", e.E2e.nominal_n);
      ("frontend.overhead_ms", e.E2e.p50_ms -. handler_p50, "ms", e.E2e.nominal_n);
      ( "frontend.shed_ratio",
        float_of_int e.E2e.knee.E2e.probe_sheds /. float_of_int (max 1 e.E2e.knee.E2e.probe_sent),
        "ratio",
        e.E2e.knee.E2e.probe_sent );
      ("wire.decode_us", mean l.decode_us, "us", l.decode_us.n);
      ("wire.encode_us", mean l.encode_us, "us", l.encode_us.n);
      ("wire.reply_bytes", mean l.reply_bytes, "bytes", l.reply_bytes.n);
      ("service.submit_ms", mean l.submit_ms, "ms", l.submit_ms.n);
      ("service.unphased_ms", mean l.unphased_ms, "ms", l.unphased_ms.n);
      ("service.minor_kw", mean l.submit_minor_kw, "kwords", l.submit_minor_kw.n);
      ("model.snapshot_ms", mean l.snapshot_ms, "ms", l.snapshot_ms.n);
      ("model.snapshot_minor_kw", mean l.snapshot_minor_kw, "kwords", l.snapshot_minor_kw.n);
      ("cache.hit_ratio", float_of_int t.hits /. float_of_int (max 1 lookups), "ratio", lookups);
      ("cache.invalidations", float_of_int t.invalidations /. float_of_int handled, "1/req", handled);
      ("ledger.admissible_us", mean l.admissible_us, "us", l.admissible_us.n);
      ("ledger.commit_us", mean l.commit_us, "us", l.commit_us.n);
      ("ledger.release_us", mean l.release_us, "us", l.release_us.n);
      ( "ledger.reject_ratio",
        float_of_int l.ledger_rejects /. float_of_int (max 1 l.ledger_decisions),
        "ratio",
        l.ledger_decisions );
      ("problem.make_ms", mean l.make_ms, "ms", l.make_ms.n);
      ("expr.evals_per_req", mean l.evals, "count", l.evals.n);
      ("filter.build_ms", mean l.build_ms, "ms", l.build_ms.n);
      ("filter.minor_kw", mean l.build_minor_kw, "kwords", l.build_minor_kw.n);
      ("search.ms", mean l.search_ms, "ms", l.search_ms.n);
      ("search.visited", mean l.visited, "count", l.visited.n);
      ("search.ns_per_visit", per_visit (l.search_ms.sum *. 1e6), "ns", l.search_ms.n);
      ("search.minor_words_per_visit", per_visit l.search_minor_words.sum, "words", l.search_ms.n);
      ("explain.extra_ms", mean l.explain_extra_ms, "ms", l.explain_extra_ms.n);
      ("explain.minor_kw", mean l.explain_minor_kw, "kwords", l.explain_minor_kw.n);
      ("setup.graphml_s", graphml_s, "s", 3);
      ("setup.model_s", model_s, "s", 3);
      ( "gc.major_per_100req",
        100.0 *. float_of_int majors /. float_of_int (max 1 (List.length plain_times)),
        "count",
        List.length plain_times );
      ( "trace.overhead_ratio",
        sum t.traced_handler_s /. Float.max 1e-9 (sum plain_times),
        "ratio",
        List.length plain_times );
    ]
  in
  let correct =
    e.E2e.wrong = 0 && e.E2e.broken = None && t.failures = 0 && plain_failures = 0
  in
  let attempted = e.E2e.sent + t.handled + List.length plain_times in
  (correct, attempted, e.E2e.failed, metrics)
