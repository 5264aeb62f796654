(* nebench: the benchmark's runner (started by run.py).

     nebench frames --workload W --seed N --host FILE [--count K]
       print the first K frames of the workload's stream
     nebench e2e --workload W --seed N --seconds S --host FILE
                 --server BIN --clk-tck T --out DIR
       end-to-end run against a spawned netembed_server
     nebench trace (same flags)
       traced in-process replay plus a short end-to-end run for the
       front-end metrics

   The last line of e2e/trace output is the result object
   {"correct", "attempted", "failed", "metrics"}; the lines before it
   print every metric with its unit and sample count. *)

module W = Workload

let metric_json (name, value, unit_) =
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
    (if Float.is_finite value then Printf.sprintf "%.9g" value else "null")
    unit_

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, value, unit_, n) -> Printf.printf "%-28s %14.6g %-8s n=%d\n" name value unit_ n)
    metrics;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", " (List.map (fun (a, b, c, _) -> metric_json (a, b, c)) metrics))

let () =
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and host = ref "" in
  let server = ref "" and clk_tck = ref 100.0 and out = ref "." and count = ref 200 in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "W churn | hard | tiny");
      ("--seed", Arg.Set_int seed, "N stream seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--host", Arg.Set_string host, "FILE hosting network GraphML");
      ("--server", Arg.Set_string server, "BIN netembed_server executable");
      ("--clk-tck", Arg.Set_float clk_tck, "T clock ticks per second of /proc/<pid>/stat");
      ("--out", Arg.Set_string out, "DIR directory for logs and spans");
      ("--count", Arg.Set_int count, "K frames to print");
    ]
  in
  Arg.parse_argv ~current:(ref 1) Sys.argv specs (fun a -> raise (Arg.Bad ("unexpected " ^ a)))
    "nebench frames|e2e|trace [flags]";
  let kind =
    match W.kind_of_string !workload with
    | Some k -> k
    | None ->
        prerr_endline "nebench: --workload must be churn, hard or tiny";
        exit 2
  in
  let host_graph = Netembed_graphml.Graphml.read_file !host in
  let w = W.make kind ~seed:!seed ~host:host_graph in
  at_exit Client.kill_all;
  (* A server that dies mid-run breaks the session with EPIPE rather
     than killing the runner. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* A stopped benchmark takes its servers down with it. *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  match cmd with
  | "frames" -> print_string (W.dump w !count)
  | "e2e" ->
      let checker = Check.create w ~host:host_graph in
      let r =
        E2e.run w checker ~budget:(E2e.budget_of_seconds !seconds) ~server_bin:!server ~host_file:!host
          ~clk_tck:!clk_tck ~log:(Filename.concat !out "server.log")
      in
      List.iter (fun m -> prerr_endline ("nebench: wrong answer: " ^ m)) r.E2e.messages;
      Option.iter (fun m -> prerr_endline ("nebench: session broken: " ^ m)) r.E2e.broken;
      List.iteri
        (fun i (r : E2e.round) ->
          let lat = Client.sorted r.E2e.nom.Client.lat_ms in
          Printf.printf "round %d  throughput %7.2f req/s  nominal p50 %8.3f ms  p90 %8.3f ms  cpu %7.2f ms/req\n" i
            r.E2e.thr (Client.quantile lat 0.5) (Client.quantile lat 0.9)
            (r.E2e.cpu_s *. 1000.0 /. float_of_int (max 1 r.E2e.answered)))
        r.E2e.rounds;
      List.iter
        (fun (p : E2e.probe) ->
          Printf.printf "knee probe %5.3f x throughput = %7.2f req/s  p90 %9.3f ms  later p50 %9.3f ms  limit %9.3f ms%s  %s\n"
            p.fraction p.rate p.p90 p.later_p50 p.limit
            (if p.clean then "" else "  lost/shed")
            (if E2e.passes p then "pass" else "fail"))
        r.E2e.knee.E2e.probes;
      Printf.printf "nominal %.1f req/s, generator late p90 %.3f ms\n" (E2e.params kind).E2e.nominal_rps
        r.E2e.late_p90_ms;
      (* Reported for reading, not gated: on a shared 2-core VM the
         run-to-run spread of these wall-clock figures exceeds any bound
         the benchmark may set. *)
      List.iter
        (fun (name, value, unit_, n) -> Printf.printf "not gated: %-17s %14.6g %-8s n=%d\n" name value unit_ n)
        [
          ("throughput_rps", r.E2e.throughput_rps, "req/s", r.E2e.thr_n);
          ("knee_rps", r.E2e.knee.E2e.knee_rps, "req/s", r.E2e.knee.E2e.probe_sent);
          ("p50_ms", r.E2e.p50_ms, "ms", r.E2e.nominal_n);
          ("p90_ms", r.E2e.p90_ms, "ms", r.E2e.nominal_n);
        ];
      let ok_ratio = 1.0 -. (float_of_int r.E2e.failed /. float_of_int (max 1 r.E2e.counted)) in
      let metrics =
        [
          ("setup_s", r.E2e.setup_s, "s", E2e.setup_spawns);
          ("cpu_ms_per_req", r.E2e.cpu_ms_per_req, "ms", r.E2e.cpu_n);
          ("peak_rss_mb", r.E2e.peak_rss_mb, "MB", 1);
          ("ok_ratio", ok_ratio, "ratio", r.E2e.counted);
          ("accept_ratio", r.E2e.accept_ratio, "ratio", r.E2e.nominal_n);
        ]
      in
      let correct = r.E2e.wrong = 0 && r.E2e.broken = None in
      print_result ~correct ~attempted:r.E2e.sent ~failed:r.E2e.failed metrics;
      if not correct then exit 1
  | "trace" ->
      let correct, attempted, failed, metrics =
        Replay.run w ~host:host_graph ~seconds:!seconds ~server_bin:!server ~host_file:!host
          ~clk_tck:!clk_tck ~out:!out
      in
      print_result ~correct ~attempted ~failed metrics;
      if not correct then exit 1
  | _ ->
      prerr_endline "nebench: command must be frames, e2e or trace";
      exit 2
