(* The end-to-end run: one workload against a freshly spawned
   netembed_server over loopback TCP.

   On one server, in order:
   1. set-up: the server is spawned [setup_spawns] times; setup_s is
      the median time from spawn to its first answered frame;
   2. warm-up (closed loop, untimed): caches fill, churn reaches its
      steady tenant population;
   3. [rounds] rounds of: a closed-loop throughput window, an open-loop
      window at the workload's fixed nominal rate (p50/p90, server CPU
      per request), and one segment of each knee probe (Poisson
      arrivals at fractions of the throughput so far);
   4. churn only: drain every live tenant, then UTIL must read used=0.

   Every window is one whole block of the workload's mix. *)

module W = Workload
module C = Client

type params = {
  conns : int;
  window : int;  (** closed-loop requests outstanding per connection *)
  nominal_rps : float;
}

(* Nominal rates come from seed measurements on a 2-core box (see
   README.md): churn and hard at about a quarter of their throughput,
   where a request rarely waits for the one before it, so that a slower
   machine raises the latency at the nominal rate by about its own
   slowdown rather than by a queue. *)
let params = function
  | W.Churn -> { conns = 1; window = 4; nominal_rps = 5.0 }
  | W.Hard -> { conns = 2; window = 2; nominal_rps = 4.0 }
  | W.Tiny -> { conns = 2; window = 8; nominal_rps = 150.0 }

(* The knee's latency limit: a probe's p90 may be at most this many
   times the p90 at the nominal rate.  Both are measured in the same
   run, so the limit follows the machine's speed and the knee marks
   where queueing, not per-request cost, takes over. *)
let limit_factor = 1.5

let setup_spawns = 5

(* Warm-up ends on the second block boundary: one block of hard or
   tiny (every template once), and for churn the first 36 arrivals. *)
let warm_items (w : W.t) = W.next_boundary w (W.first_boundary w + W.block_items w)

(* Time from spawn to the first answered frame (a HEALTH). *)
let first_answer ~server_bin ~host_file ~log =
  let t0 = C.now () in
  let srv = C.spawn ~server_bin ~host_file ~log in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, srv.C.port));
  C.write_all fd "HEALTH\n.\n";
  let buf = Bytes.create 4096 in
  let rec read acc =
    let n = Unix.read fd buf 0 4096 in
    let acc = acc ^ Bytes.sub_string buf 0 n in
    if n = 0 || Check.starts_with "." acc || (String.length acc >= 3 && String.sub acc (String.length acc - 3) 3 = "\n.\n")
    then acc
    else read acc
  in
  let reply = read "" in
  let dt = C.now () -. t0 in
  Unix.close fd;
  if not (Check.starts_with "OK" reply) then failwith ("first frame: " ^ reply);
  (srv, dt)

type probe = {
  rate : float;  (** offered rate, mean over its segments *)
  fraction : float;
  p90 : float;  (** over every segment *)
  later_p50 : float;  (** median over the later halves of the segments *)
  limit : float;
  clean : bool;  (** every request answered, none shed *)
}

type knee = { knee_rps : float; probes : probe list; probe_sent : int; probe_sheds : int }

(* How far a probe's latency is over its limit, as log (p90 / limit).
   A backlog that grows through a segment counts as well: the later
   halves' median, which stays far below the p90 unless the queue
   keeps growing, stands in for the p90 when it is higher.  A probe
   that lost or shed a request counts as missing the limit by the
   cap. *)
let excess_cap = log 8.0

let excess p =
  if not p.clean then excess_cap
  else Float.min excess_cap (log (Float.max p.p90 p.later_p50 /. p.limit))

let passes p = excess p <= 0.0

(* The knee from the probes, in req/s: the rate where the least-squares
   line of [excess] against rate crosses 0 (with two probes, the line
   through them), kept within [half the lowest probe rate, ceiling].
   A flat or falling line (no queueing seen) gives [ceiling]. *)
let knee_of ~ceiling probes =
  match probes with
  | [] -> ceiling
  | _ ->
      let n = float_of_int (List.length probes) in
      let mean f = List.fold_left (fun a p -> a +. f p) 0.0 probes /. n in
      let mx = mean (fun p -> p.rate) and my = mean excess in
      let sxy = mean (fun p -> (p.rate -. mx) *. (excess p -. my))
      and sxx = mean (fun p -> (p.rate -. mx) ** 2.0) in
      let lowest = List.fold_left (fun a p -> Float.min a p.rate) infinity probes in
      if sxx <= 0.0 || sxy <= 0.0 then ceiling
      else Float.min ceiling (Float.max (0.5 *. lowest) (mx -. (my *. sxx /. sxy)))

(* One probe from its segments, each a (rate, stats) pair. *)
let judge ~fraction ~limit segments =
  let lat = List.concat_map (fun (_, st) -> st.C.lat_ms) segments in
  (* lat_ms is newest first *)
  let later =
    List.concat_map
      (fun (_, st) ->
        let n = List.length st.C.lat_ms in
        List.filteri (fun i _ -> i < n / 2) st.C.lat_ms)
      segments
  in
  let clean =
    List.for_all
      (fun (_, (st : C.stats)) ->
        st.C.failures = 0 && st.C.sheds = 0 && st.C.wrongs = 0 && st.C.answered = st.C.sent)
      segments
  in
  {
    rate = List.fold_left (fun a (r, _) -> a +. r) 0.0 segments /. float_of_int (max 1 (List.length segments));
    fraction;
    p90 = C.quantile (C.sorted lat) 0.9;
    later_p50 = C.quantile (C.sorted later) 0.5;
    limit;
    clean;
  }

(* One round: a closed-loop throughput window and a nominal-rate
   window, one block of the mix each, then a segment of the knee probes
   in turn, [probe_blocks] blocks long so that a queue can build.
   Every metric pools its windows over all rounds, so each samples the
   whole run: a slow stretch of a shared machine weighs on every metric
   and every probe alike instead of on whichever phase it hit. *)
type round = {
  thr : float;
  thr_st : C.stats;
  nom : C.stats;
  cpu_s : float;  (** server CPU over the whole round *)
  answered : int;  (** replies in the whole round *)
}

type result = {
  rounds : round list;  (** oldest first *)
  setup_s : float;
  throughput_rps : float;
  thr_n : int;
  knee : knee;
  p50_ms : float;
  p90_ms : float;
  nominal_n : int;
  late_p90_ms : float;
  cpu_ms_per_req : float;
  cpu_n : int;  (** replies [cpu_ms_per_req] divides by *)
  peak_rss_mb : float;
  sent : int;  (** every request sent, all phases *)
  failed : int;
      (** errors + timeouts + sheds in the throughput and nominal phases,
          plus every wrong answer *)
  counted : int;  (** requests sent in the throughput and nominal phases *)
  accept_ratio : float;
  wrong : int;
  messages : string list;
  broken : string option;
}

type budget = {
  rounds : int;
  knee_fractions : float list;  (** probe rates, as fractions of the throughput *)
  probe_blocks : int;  (** blocks of the mix in one probe segment *)
  spawns : int;
}

(* A round of churn or hard takes about [round_s] seconds on a 2-core
   VM; six rounds give hard (18 requests a block) and churn (20) at
   least 100 nominal-rate samples, so that 10 lie beyond the p90, and
   each of the two knee probes three segments. *)
let round_s = 8.0

let max_rounds = 6

let budget_of_seconds seconds =
  {
    rounds = max 1 (min max_rounds (int_of_float (seconds /. round_s)));
    knee_fractions = [ 0.7; 0.95 ];
    probe_blocks = 2;
    spawns = setup_spawns;
  }

(* Requests per second of closed-loop windows, all together. *)
let rate_of (sts : C.stats list) =
  let answered = List.fold_left (fun a (st : C.stats) -> a + st.C.answered) 0 sts in
  let busy = List.fold_left (fun a (st : C.stats) -> a +. (st.C.last_reply -. st.C.first_send)) 0.0 sts in
  float_of_int answered /. Float.max 1e-9 busy

let run (w : W.t) checker ~budget ~server_bin ~host_file ~clk_tck ~log =
  let p = params w.W.kind in
  let setups = ref [] in
  let srv = ref None in
  for i = 1 to budget.spawns do
    let s, dt = first_answer ~server_bin ~host_file ~log in
    setups := dt :: !setups;
    if i < budget.spawns then C.stop s else srv := Some s
  done;
  let srv = Option.get !srv in
  let s = C.open_session w checker ~port:srv.C.port ~conns:p.conns in
  let all = ref [] in
  let keep st = all := st :: !all; st in
  (* Every window covers one whole block of the mix, so each measures
     the same composition whatever the seed. *)
  ignore (keep (C.closed_items s ~window:p.window ~n:(warm_items w) ~grace:60.0));
  let block = W.block_items w in
  let gaps = W.poisson_gaps 4096 in
  let measured = ref [] and segments = ref [] in
  let pooled f = C.sorted (List.concat_map f !measured) in
  for r = 0 to max 1 budget.rounds - 1 do
    if s.C.broken = None then begin
      let cpu0 = C.cpu_seconds ~clk_tck srv.C.pid in
      let thr_st = keep (C.closed_items s ~window:p.window ~n:block ~grace:60.0) in
      let nom = keep (C.open_loop s ~rate:p.nominal_rps ~count:block ~grace:60.0) in
      (* one segment of the next probe in turn, at its fraction of the
         throughput so far *)
      let fraction = List.nth budget.knee_fractions (r mod List.length budget.knee_fractions) in
      let rate = fraction *. rate_of (thr_st :: List.map (fun r -> r.thr_st) !measured) in
      let probe = C.open_loop ~gaps s ~rate ~count:(budget.probe_blocks * block) ~grace:30.0 in
      segments := (fraction, (rate, probe)) :: !segments;
      let cpu_s = C.cpu_seconds ~clk_tck srv.C.pid -. cpu0 in
      let answered = thr_st.C.answered + nom.C.answered + probe.C.answered in
      measured := { thr = rate_of [ thr_st ]; thr_st; nom; cpu_s; answered } :: !measured
    end
  done;
  let rs = List.rev !measured in
  let limit = limit_factor *. C.quantile (pooled (fun r -> r.nom.C.lat_ms)) 0.9 in
  let probes =
    List.filter_map
      (fun f ->
        match List.filter_map (fun (g, seg) -> if g = f then Some seg else None) !segments with
        | [] -> None
        | segs -> Some (judge ~fraction:f ~limit segs))
      budget.knee_fractions
  in
  let probe_sent = List.fold_left (fun a (_, (_, (st : C.stats))) -> a + st.C.sent) 0 !segments in
  let probe_sheds = List.fold_left (fun a (_, (_, (st : C.stats))) -> a + st.C.sheds) 0 !segments in
  (* churn: the stream ends with a drain of every live tenant, then UTIL *)
  (if w.W.kind = W.Churn && s.C.broken = None then begin
     Mutex.lock s.C.m;
     let live = Hashtbl.fold (fun tenant _ acc -> W.Free tenant :: acc) s.C.live [] in
     Mutex.unlock s.C.m;
     let live = List.sort compare live in
     ignore (keep (C.closed_loop ~items:live s ~window:p.window ~duration:infinity ~grace:60.0));
     let util = W.Send { tmpl = Array.length w.W.pool - 1; tenant = None } in
     let st, body = C.request s util ~grace:30.0 in
     ignore (keep st);
     ignore (Check.check_drained checker body)
   end);
  let peak_rss_mb = C.vm_hwm_mb srv.C.pid in
  C.close_session s;
  C.stop srv;
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  let failed_of (st : C.stats) = st.C.failures + st.C.sheds in
  (* Throughput and CPU per request are ratios of sums over the rounds:
     every request weighs the same, whichever round it fell in. *)
  let throughput_rps = rate_of (List.map (fun r -> r.thr_st) rs) in
  let lat = pooled (fun r -> r.nom.C.lat_ms) in
  {
    setup_s = C.median !setups;
    throughput_rps;
    thr_n = sum (fun r -> r.thr_st.C.answered);
    knee =
      {
        knee_rps = knee_of ~ceiling:throughput_rps probes;
        probes;
        probe_sent;
        probe_sheds;
      };
    p50_ms = C.quantile lat 0.5;
    p90_ms = C.quantile lat 0.9;
    nominal_n = Array.length lat;
    late_p90_ms = C.quantile (pooled (fun r -> r.nom.C.late_ms)) 0.9;
    cpu_ms_per_req =
      List.fold_left (fun a r -> a +. r.cpu_s) 0.0 rs *. 1000.0 /. float_of_int (max 1 (sum (fun r -> r.answered)));
    cpu_n = sum (fun r -> r.answered);
    peak_rss_mb;
    sent = List.fold_left (fun a (st : C.stats) -> a + st.C.sent) probe_sent !all;
    failed = sum (fun r -> failed_of r.thr_st + failed_of r.nom) + checker.Check.wrong;
    counted = sum (fun r -> r.thr_st.C.sent + r.nom.C.sent);
    accept_ratio =
      float_of_int (sum (fun r -> r.nom.C.placed)) /. float_of_int (max 1 (sum (fun r -> r.nom.C.placements)));
    wrong = checker.Check.wrong;
    messages = List.rev checker.Check.messages;
    broken = s.C.broken;
    rounds = rs;
  }
