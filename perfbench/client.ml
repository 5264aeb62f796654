(* Loopback TCP client: spawns netembed_server, drives a workload's
   stream over at most two connections with two threads (the calling
   thread sends, one receiver thread reads every connection), and
   checks every reply as it arrives.

   Open-loop phases send on a fixed schedule and time each request from
   its due time, not its actual send time, so a generator stall shows
   up as latency and as [late]; closed-loop phases keep a fixed window
   of outstanding requests per connection. *)

module W = Workload

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Server process                                                      *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; port : int; out : in_channel }

let spawned : int list ref = ref []

let kill_all () =
  List.iter (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()) !spawned;
  List.iter (fun pid -> try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()) !spawned;
  spawned := []

let spawn ~server_bin ~host_file ~log =
  let r, w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
  let pid =
    Unix.create_process server_bin
      [| server_bin; "--host"; host_file; "--tcp-port"; "0"; "--workers"; "1" |]
      Unix.stdin w err
  in
  spawned := pid :: !spawned;
  Unix.close w;
  Unix.close err;
  let out = Unix.in_channel_of_descr r in
  let line = try input_line out with End_of_file -> "" in
  match Scanf.sscanf_opt line "LISTEN port=%d" Fun.id with
  | Some port -> { pid; port; out }
  | None -> failwith ("server did not announce a port: " ^ line)

let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.02;
        wait ()
    | 0, _ ->
        (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] s.pid)
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ();
  spawned := List.filter (( <> ) s.pid) !spawned;
  close_in_noerr s.out

(* user+sys CPU seconds of the server process (all threads). *)
let cpu_seconds ~clk_tck pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let line = input_line ic in
  close_in ic;
  let after = String.sub line (String.rindex line ')' + 2) (String.length line - String.rindex line ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' after) in
  (* Fields from state (field 3) on: utime is field 14, stime 15. *)
  float_of_string f.(11) +. float_of_string f.(12) |> fun ticks -> ticks /. clk_tck

let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %f" Fun.id /. 1024.0
    | _ -> go ()
    | exception End_of_file -> nan
  in
  let v = go () in
  close_in ic;
  v

(* ------------------------------------------------------------------ *)
(* Connections and the receiver thread                                 *)
(* ------------------------------------------------------------------ *)

type stats = {
  mutable sent : int;
  mutable answered : int;
  mutable sheds : int;
  mutable failures : int;
  mutable wrongs : int;
  mutable placements : int;  (** EMBED/ALLOC requests answered *)
  mutable placed : int;  (** ... of which carried a placement *)
  mutable lat_ms : float list;  (** reply time - due time *)
  mutable late_ms : float list;  (** send time - due time *)
  mutable first_send : float;
  mutable last_reply : float;
}

let new_stats () =
  {
    sent = 0;
    answered = 0;
    sheds = 0;
    failures = 0;
    wrongs = 0;
    placements = 0;
    placed = 0;
    lat_ms = [];
    late_ms = [];
    first_send = infinity;
    last_reply = neg_infinity;
  }

type pend = { item : W.item; alloc : int option; due : float; st : stats }

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable scanned : int;
  pending : pend Queue.t;
}

type session = {
  w : W.t;
  checker : Check.t;
  conns : conn array;
  m : Mutex.t;
  c : Condition.t;
  mutable cursor : int;  (** next stream item *)
  tenants : (int, int option) Hashtbl.t;  (** tenant -> committed allocation id *)
  live : (int, int) Hashtbl.t;  (** tenants holding an allocation *)
  mutable stopping : bool;
  mutable broken : string option;
  mutable last_body : string;
  mutable receiver : Thread.t option;
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  { fd; buf = Buffer.create 65536; scanned = 0; pending = Queue.create () }

(* Cut complete reply frames (lines through a "." line) off [c.buf]. *)
let take_frames c =
  let frames = ref [] in
  let rec go () =
    let s = Buffer.contents c.buf in
    let n = String.length s in
    let rec find i =
      if i + 1 >= n then None
      else if s.[i] = '.' && s.[i + 1] = '\n' && (i = 0 || s.[i - 1] = '\n') then Some (i + 2)
      else find (i + 1)
    in
    match find (max 0 (c.scanned - 1)) with
    | None -> c.scanned <- n
    | Some stop ->
        frames := String.sub s 0 stop :: !frames;
        Buffer.clear c.buf;
        Buffer.add_substring c.buf s stop (n - stop);
        c.scanned <- 0;
        go ()
  in
  go ();
  List.rev !frames

(* Caller holds [s.m]. *)
let on_reply s (p : pend) body t =
  let st = p.st in
  s.last_body <- body;
  st.answered <- st.answered + 1;
  st.last_reply <- Float.max st.last_reply t;
  st.lat_ms <- ((t -. p.due) *. 1000.0) :: st.lat_ms;
  let v = Check.reply s.checker p.item ~allocation:p.alloc body in
  Check.track ~tenants:s.tenants ~live:s.live p.item v;
  match v with
  | Check.Answer { placed; _ } -> (
      match p.item with
      | W.Send { tmpl; _ } -> (
          match s.w.W.pool.(tmpl).W.verb with
          | W.Embed | W.Alloc ->
              st.placements <- st.placements + 1;
              if placed then st.placed <- st.placed + 1
          | W.Util | W.Top | W.Health -> ())
      | W.Free _ -> ())
  | Check.Freed -> ()
  | Check.Shed -> st.sheds <- st.sheds + 1
  | Check.Failed m ->
      st.failures <- st.failures + 1;
      if st.failures <= 3 then prerr_endline ("nebench: failed request: " ^ m)
  | Check.Wrong m ->
      (* One wrong answer fails the run; measuring on is pointless. *)
      st.wrongs <- st.wrongs + 1;
      if s.broken = None then s.broken <- Some ("wrong answer: " ^ m)

let receive s =
  let chunk = Bytes.create 65536 in
  let fds = Array.to_list (Array.map (fun c -> c.fd) s.conns) in
  while not s.stopping do
    match Unix.select fds [] [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
        List.iter
          (fun fd ->
            let c = List.find (fun c -> c.fd = fd) (Array.to_list s.conns) in
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 ->
                Mutex.lock s.m;
                if not s.stopping then s.broken <- Some "server closed the connection";
                s.stopping <- true;
                Condition.broadcast s.c;
                Mutex.unlock s.m
            | n ->
                let t = now () in
                Buffer.add_subbytes c.buf chunk 0 n;
                let frames = take_frames c in
                if frames <> [] then begin
                  Mutex.lock s.m;
                  List.iter
                    (fun body ->
                      match Queue.take_opt c.pending with
                      | Some p -> on_reply s p body t
                      | None -> s.broken <- Some "unsolicited reply")
                    frames;
                  Condition.broadcast s.c;
                  Mutex.unlock s.m
                end
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ())
          ready
  done

let open_session w checker ~port ~conns =
  let s =
    {
      w;
      checker;
      conns = Array.init conns (fun _ -> connect port);
      m = Mutex.create ();
      c = Condition.create ();
      cursor = 0;
      tenants = Hashtbl.create 1024;
      live = Hashtbl.create 64;
      stopping = false;
      broken = None;
      last_body = "";
      receiver = None;
    }
  in
  s.receiver <- Some (Thread.create receive s);
  s

let close_session s =
  Mutex.lock s.m;
  s.stopping <- true;
  Mutex.unlock s.m;
  Option.iter Thread.join s.receiver;
  Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) s.conns

(* ------------------------------------------------------------------ *)
(* Sending                                                             *)
(* ------------------------------------------------------------------ *)

let write_all fd str =
  let len = String.length str in
  let pos = ref 0 in
  while !pos < len do
    pos := !pos + Unix.write_substring fd str !pos (len - !pos)
  done

let outstanding s = Array.fold_left (fun a c -> a + Queue.length c.pending) 0 s.conns

(* Resolve the frame of [item]; a FREE waits for its tenant's ALLOC
   answer and is skipped when that ALLOC placed nothing.  Caller holds
   [s.m]. *)
let rec resolve s item =
  match item with
  | W.Send { tmpl; _ } -> Some (s.w.W.pool.(tmpl).W.frame, None)
  | W.Free i -> (
      match Hashtbl.find_opt s.tenants i with
      | Some (Some id) -> Some (Printf.sprintf "FREE %d\n.\n" id, Some id)
      | Some None -> None
      | None when s.stopping -> None
      | None ->
          Condition.wait s.c s.m;
          resolve s item)

(* Send [item] on connection [ci], due at [due]. *)
let send s st ~ci ~due item =
  Mutex.lock s.m;
  match resolve s item with
  | None -> Mutex.unlock s.m
  | Some (frame, alloc) ->
      let c = s.conns.(ci) in
      let t = now () in
      Queue.push { item; alloc; due; st } c.pending;
      st.sent <- st.sent + 1;
      st.first_send <- Float.min st.first_send due;
      st.late_ms <- ((t -. due) *. 1000.0) :: st.late_ms;
      Mutex.unlock s.m;
      (try write_all c.fd frame
       with Unix.Unix_error (e, _, _) ->
         Mutex.lock s.m;
         s.broken <- Some ("write: " ^ Unix.error_message e);
         Mutex.unlock s.m)

let next_item s =
  Mutex.lock s.m;
  let k = s.cursor in
  s.cursor <- k + 1;
  Mutex.unlock s.m;
  W.item s.w k

(* Wait until every request sent so far is answered; what is still
   unanswered after [grace] seconds counts as failed and breaks the
   session (later replies could no longer be matched). *)
let settle s st ~grace =
  let deadline = now () +. grace in
  Mutex.lock s.m;
  while outstanding s > 0 && s.broken = None && now () < deadline do
    Mutex.unlock s.m;
    Unix.sleepf 0.002;
    Mutex.lock s.m
  done;
  let left = outstanding s in
  (* counted once: after a break the same requests stay outstanding *)
  if left > 0 && s.broken = None then begin
    st.failures <- st.failures + left;
    s.broken <- Some (Printf.sprintf "%d requests unanswered" left)
  end;
  Mutex.unlock s.m

(* Open loop over the next [count] stream items.  Item [i] is due at
   [t0 + i / rate], or, given [gaps] (inter-arrival times of mean 1),
   at [t0 + (gaps.(0) + ... + gaps.(i-1)) / rate]. *)
let open_loop ?gaps s ~rate ~count ~grace =
  let st = new_stats () in
  let t0 = now () +. 0.005 in
  let n = Array.length s.conns in
  let i = ref 0 and at = ref 0.0 in
  while !i < count && s.broken = None do
    let due = t0 +. (!at /. rate) in
    (at := !at +. match gaps with Some g -> g.(!i mod Array.length g) | None -> 1.0);
    let dt = due -. now () in
    if dt > 0.0 then Unix.sleepf dt;
    send s st ~ci:(!i mod n) ~due (next_item s);
    incr i
  done;
  settle s st ~grace;
  st

(* Closed loop: keep [window] requests outstanding on every connection
   for [duration] seconds and then until the stream cursor satisfies
   [stop_at], or until [items] (when given) are sent. *)
let closed_loop ?items ?(stop_at = fun _ -> true) s ~window ~duration ~grace =
  let st = new_stats () in
  let t_end = now () +. duration in
  let queue = ref (Option.value ~default:[] items) in
  let continue = ref true in
  let running () = now () < t_end || (items = None && not (stop_at s.cursor)) in
  while !continue && s.broken = None && running () do
    Mutex.lock s.m;
    let pick () =
      let best = ref 0 in
      Array.iteri
        (fun i c -> if Queue.length c.pending < Queue.length s.conns.(!best).pending then best := i)
        s.conns;
      !best
    in
    let ci = ref (pick ()) in
    while Queue.length s.conns.(!ci).pending >= window && s.broken = None do
      Condition.wait s.c s.m;
      ci := pick ()
    done;
    Mutex.unlock s.m;
    let item =
      match (items, !queue) with
      | None, _ -> Some (next_item s)
      | Some _, x :: rest ->
          queue := rest;
          Some x
      | Some _, [] -> None
    in
    match item with
    | Some item -> send s st ~ci:!ci ~due:(now ()) item
    | None -> continue := false
  done;
  settle s st ~grace;
  st

(* Closed loop over exactly the next [n] stream items. *)
let closed_items s ~window ~n ~grace =
  Mutex.lock s.m;
  let k0 = s.cursor in
  s.cursor <- k0 + n;
  Mutex.unlock s.m;
  closed_loop ~items:(List.init n (fun j -> W.item s.w (k0 + j))) s ~window ~duration:infinity ~grace

(* One request, answered synchronously; returns the reply body. *)
let request s item ~grace =
  let st = closed_loop ~items:[ item ] s ~window:1 ~duration:infinity ~grace in
  Mutex.lock s.m;
  let b = s.last_body in
  Mutex.unlock s.m;
  (st, b)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

(* Nearest-rank quantile of a sorted array. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median l = quantile (sorted l) 0.5
