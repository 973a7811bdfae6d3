(* Transport layer: see server.mli for the concurrency contract. *)

let run_batch service ic oc =
  let n = ref 0 in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then begin
         output_string oc (Service.handle_line service line);
         output_char oc '\n';
         flush oc;
         incr n
       end
     done
   with End_of_file -> ());
  !n

type listener = {
  l_fd : Unix.file_descr;
  l_kind : [ `Jsonl of string  (** unix socket path *)
           | `Http of int  (** bound TCP port *) ];
}

type t = {
  service : Service.t;
  listeners : listener list;
  mutable accept_threads : Thread.t list;
  mutable workers : Thread.t list;
  conns : (Unix.file_descr, unit) Hashtbl.t;
  conns_lock : Mutex.t;
  stop_lock : Mutex.t;  (** serializes concurrent {!stop} calls *)
  mutable stopped : bool;
}

let http_port t =
  List.find_map
    (function { l_kind = `Http port; _ } -> Some port | _ -> None)
    t.listeners

let track t fd = Mutex.protect t.conns_lock (fun () -> Hashtbl.replace t.conns fd ())

let untrack t fd =
  Mutex.protect t.conns_lock (fun () -> Hashtbl.remove t.conns fd)

let handle_jsonl_conn t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (* One response line at a time per connection: workers race to answer,
     the mutex keeps their writes from interleaving mid-line. *)
  let wlock = Mutex.create () in
  let reply line =
    try
      Mutex.protect wlock (fun () ->
          Chaos.fire "server.write";
          output_string oc line;
          output_char oc '\n';
          flush oc)
    with Sys_error _ | Unix.Unix_error _ -> ()
    (* client went away; drop the response *)
  in
  try
    while true do
      let line = Chaos.mangle "server.read" (input_line ic) in
      if String.trim line <> "" then Service.admit t.service ~reply line
    done
  with End_of_file | Sys_error _ | Unix.Unix_error _ -> ()

let handle_conn t kind fd =
  track t fd;
  (match kind with
  | `Jsonl _ -> handle_jsonl_conn t fd
  | `Http _ -> ( try Http.serve_conn t.service fd with _ -> ()));
  untrack t fd;
  try Unix.close fd with Unix.Unix_error _ -> ()

(* A socket file may be left behind by a crashed server or belong to a
   live one.  Probe with connect(2): a refused/absent peer means stale
   (unlink and rebind), an accepted connection means another server owns
   the path (surface EADDRINUSE instead of silently hijacking it). *)
let claim_socket_path path =
  if Sys.file_exists path then begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
          false
      | exception Unix.Unix_error _ ->
          (* Not conclusively dead (e.g. EACCES): treat as live rather
             than unlink something we cannot vouch for. *)
          true
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path));
    try Sys.remove path with Sys_error _ -> ()
  end

let bind_unix ~backlog path =
  claim_socket_path path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd backlog
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { l_fd = fd; l_kind = `Jsonl path }

let bind_http ~backlog (host, port) =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ ->
      invalid_arg (Printf.sprintf "Server.start: bad HTTP address %S" host)
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (addr, port));
     Unix.listen fd backlog
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  (* port 0 asks the kernel for an ephemeral port; report the real one *)
  let bound =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  { l_fd = fd; l_kind = `Http bound }

let start ?(workers = 1) ?(backlog = 16) ?path ?http service () =
  if workers < 1 then invalid_arg "Server.start: workers must be positive";
  if path = None && http = None then
    invalid_arg "Server.start: need at least one of ~path / ~http";
  (* A write to a disconnected client must surface as EPIPE, not kill the
     process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listeners = ref [] in
  (try
     Option.iter (fun p -> listeners := [ bind_unix ~backlog p ]) path;
     Option.iter
       (fun hp -> listeners := bind_http ~backlog hp :: !listeners)
       http
   with e ->
     List.iter
       (fun l -> try Unix.close l.l_fd with Unix.Unix_error _ -> ())
       !listeners;
     raise e);
  let t =
    {
      service;
      listeners = !listeners;
      accept_threads = [];
      workers = [];
      conns = Hashtbl.create 8;
      conns_lock = Mutex.create ();
      stop_lock = Mutex.create ();
      stopped = false;
    }
  in
  let accept_loop l () =
    try
      while not t.stopped do
        match Unix.accept l.l_fd with
        | fd, _ ->
            if t.stopped then (try Unix.close fd with Unix.Unix_error _ -> ())
            else ignore (Thread.create (handle_conn t l.l_kind) fd)
        | exception Unix.Unix_error (Unix.EINTR, _, _) ->
            (* a signal (e.g. a shutdown request) landed in this thread:
               re-check the stop flag and keep accepting *)
            ()
      done
    with Unix.Unix_error _ | Sys_error _ -> ()
    (* listen socket closed: stop *)
  in
  t.accept_threads <-
    List.map (fun l -> Thread.create (accept_loop l) ()) t.listeners;
  t.workers <-
    List.init workers (fun _ ->
        Thread.create (fun () -> Service.run_worker service) ());
  t

let wait t =
  List.iter Thread.join t.accept_threads;
  List.iter Thread.join t.workers

(* Poll until [cond] or the budget runs out; coarse 2 ms ticks are fine
   for a shutdown path. *)
let wait_until ~budget_ms cond =
  let deadline = Unix.gettimeofday () +. (budget_ms /. 1e3) in
  let rec go () =
    if cond () then true
    else if Unix.gettimeofday () >= deadline then cond ()
    else begin
      Thread.delay 0.002;
      go ()
    end
  in
  go ()

(* A thread already blocked in accept(2) does not observe close(2) of
   the listening socket on Linux; wake it with a throwaway connection
   before closing. *)
let wake_listener l =
  try
    match l.l_kind with
    | `Jsonl path ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try Unix.connect fd (Unix.ADDR_UNIX path)
         with Unix.Unix_error _ -> ());
        Unix.close fd
    | `Http port ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (try
           Unix.connect fd
             (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
         with Unix.Unix_error _ -> ());
        Unix.close fd
  with Unix.Unix_error _ -> ()

let stop ?(drain_ms = 0.) t =
  Mutex.protect t.stop_lock (fun () ->
      if not t.stopped then begin
        (* Phase 1 — stop taking on work: refuse new requests, stop
           accepting connections.  Established connections stay open so
           queued and in-flight responses can still be written. *)
        Service.begin_drain t.service;
        t.stopped <- true;
        List.iter wake_listener t.listeners;
        List.iter
          (fun l -> try Unix.close l.l_fd with Unix.Unix_error _ -> ())
          t.listeners;
        (* Phase 2 — drain: let the workers finish what was admitted,
           up to the budget; then cancel whatever is still solving and
           give the cancellations a moment to unwind and answer. *)
        let drained =
          drain_ms > 0.
          && wait_until ~budget_ms:drain_ms (fun () -> Service.idle t.service)
        in
        if not drained then begin
          Service.cancel_inflight t.service;
          ignore
            (wait_until ~budget_ms:1000. (fun () -> Service.idle t.service))
        end;
        Service.stop_workers t.service;
        (* Shutting the connections down unblocks their reader threads. *)
        Mutex.protect t.conns_lock (fun () ->
            Hashtbl.iter
              (fun fd () ->
                try Unix.shutdown fd Unix.SHUTDOWN_ALL
                with Unix.Unix_error _ -> ())
              t.conns);
        List.iter
          (function
            | { l_kind = `Jsonl path; _ } -> (
                try Sys.remove path with Sys_error _ -> ())
            | _ -> ())
          t.listeners;
        wait t
      end)
