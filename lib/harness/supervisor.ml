(* Fork supervision (see the interface).  A child's write end of its
   result pipe is closed only by its exit, so end-of-file on the pipe
   means the child is gone or about to be: the parent then reaps it
   with a blocking [waitpid] on that pid, and never polls. *)

type 'a exit =
  | Returned of 'a
  | Exited of int
  | Signaled of int
  | Deadline
  | Vanished

type 'k child = {
  key : 'k;
  pid : int;
  fd : Unix.file_descr; (* nonblocking read end of the result pipe *)
  buf : Buffer.t; (* the marshalled value, as it streams in *)
  mutable eof : bool;
  started : float;
  deadline : float; (* absolute; [infinity] for none *)
  mutable killed : bool;
}

type ('k, 'a) t = {
  jobs : int;
  flight : string option;
  chunk : Bytes.t;
  mutable children : 'k child list;
}

let exit_raised = 3
let exit_protocol = 98

let create ?flight ~jobs () =
  { jobs = max 1 jobs; flight; chunk = Bytes.create 65536; children = [] }

let running t = List.length t.children
let free t = t.jobs - running t

(* In the child: never returns, never runs the parent's [at_exit] hooks
   or flushes its buffers.  Flight checkpoints keep 8 spans: a campaign
   worker checkpoints once per seed, so the span tail is the file-size
   budget. *)
let child_main t fd run =
  let code =
    try
      let send_dump = Obs.enabled () in
      Obs.reset ();
      Option.iter
        (fun dir ->
          Obs.set_enabled true;
          (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
          Obs.flight_start ~last:8
            (Filename.concat dir
               (Printf.sprintf "flight-%d.jsonl" (Unix.getpid ()))))
        t.flight;
      match run () with
      | exception _ -> exit_raised
      | v ->
          if Obs.flight_active () then Obs.flight_stop ();
          let dump = if send_dump then Some (Obs.dump ()) else None in
          let oc = Unix.out_channel_of_descr fd in
          Marshal.to_channel oc (v, dump) [];
          flush oc;
          0
    with _ -> exit_protocol
  in
  Unix._exit code

let spawn t ?deadline key run =
  if free t <= 0 then invalid_arg "Supervisor.spawn: no free slot";
  let r, w = Unix.pipe ~cloexec:true () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      Unix.close r;
      child_main t w run
  | pid ->
      Unix.close w;
      Unix.set_nonblock r;
      let now = Unix.gettimeofday () in
      t.children <-
        {
          key;
          pid;
          fd = r;
          buf = Buffer.create 4096;
          eof = false;
          started = now;
          deadline =
            (match deadline with Some s -> now +. s | None -> infinity);
          killed = false;
        }
        :: t.children;
      pid

let read t c =
  let rec go () =
    match Unix.read c.fd t.chunk 0 (Bytes.length t.chunk) with
    | 0 -> c.eof <- true
    | n ->
        Buffer.add_subbytes c.buf t.chunk 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let rec waitpid pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let reap c =
  Unix.close c.fd;
  let exit =
    match waitpid c.pid with
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Vanished
    | Unix.WEXITED 0 -> (
        match Marshal.from_string (Buffer.contents c.buf) 0 with
        | v, dump ->
            if Obs.enabled () then Option.iter (Obs.merge ~tid:c.pid) dump;
            Returned v
        | exception _ -> Exited 0)
    | Unix.WEXITED n -> Exited n
    | Unix.WSIGNALED _ when c.killed -> Deadline
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> Signaled s
  in
  (c.key, Unix.gettimeofday () -. c.started, exit)

let wait t ?(until = infinity) () =
  let next =
    List.fold_left
      (fun acc c -> if c.killed then acc else Float.min acc c.deadline)
      until t.children
  in
  if t.children = [] && next = infinity then []
  else begin
    let timeout =
      if next = infinity then -1.
      else Float.max 0. (next -. Unix.gettimeofday ())
    in
    let fds = List.map (fun c -> c.fd) t.children in
    (match Unix.select fds [] [] timeout with
    | ready, _, _ ->
        List.iter (fun c -> if List.mem c.fd ready then read t c) t.children
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    let now = Unix.gettimeofday () in
    List.iter
      (fun c ->
        if (not c.killed) && now >= c.deadline then begin
          c.killed <- true;
          try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ()
        end)
      t.children;
    let ended, live = List.partition (fun c -> c.eof) t.children in
    t.children <- live;
    List.map reap ended
  end
