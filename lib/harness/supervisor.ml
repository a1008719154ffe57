(* Fork supervision (see the interface).  A worker's write end of its
   result pipe is closed only by its exit, so end-of-file on the pipe
   means the worker is gone or about to be: the parent then reaps it
   with a blocking [waitpid] on that pid, and never polls.  A value is
   complete once the buffer holds the whole marshalled message; one
   job is in flight per worker, so nothing follows it. *)

type loss = Exited of int | Signaled of int | Deadline | Vanished
type 'a exit = Returned of 'a | Lost of loss * loss

(* A job the supervisor holds: [window] is the relative deadline every
   attempt gets, [first] the loss of attempt 1 once there was one. *)
type 'j held = { job : 'j; window : float option; first : loss option }

type 'j busy = {
  held : 'j held;
  started : float;
  deadline : float; (* absolute; [infinity] for none *)
  mutable killed : bool;
}

type 'j worker = {
  pid : int;
  jobs_w : Unix.file_descr; (* write end of the job pipe *)
  results : Unix.file_descr; (* nonblocking read end of the result pipe *)
  buf : Buffer.t; (* the marshalled value, as it streams in *)
  mutable eof : bool;
  mutable busy : 'j busy option;
}

type ('j, 'a) t = {
  run : attempt:int -> 'j -> 'a;
  flight : string option;
  chunk : Bytes.t;
  mutable workers : 'j worker list;
  mutable retries : (float * 'j held) list; (* due time, in due order *)
}

let exit_raised = 3
let exit_protocol = 98
let retry_delay = 0.05

(* In a worker: close every descriptor inherited from the parent but
   stdio and [keep] — the daemon's socket, its clients, the siblings'
   pipes (a sibling holding our job pipe's write end would keep us from
   ever seeing it close).  On Unix a [file_descr] is the descriptor's
   number. *)
let close_inherited keep =
  match Sys.readdir "/proc/self/fd" with
  | exception Sys_error _ -> ()
  | names ->
      Array.iter
        (fun name ->
          match int_of_string_opt name with
          | Some n when n > 2 ->
              let fd : Unix.file_descr = Obj.magic n in
              if not (List.mem fd keep) then
                (try Unix.close fd with Unix.Unix_error _ -> ())
          | _ -> ())
        names

(* In a worker: serve jobs until the job pipe closes; never returns,
   never runs the parent's [at_exit] hooks or flushes its buffers.  A
   busy worker cannot see its job pipe close, so a timer (a fork starts
   with none) asks every 0.2 s whether [parent] is gone; OCaml runs the
   handler at the next poll point, in a sleep, a channel read or a
   loop.  Flight checkpoints keep 8 spans: a campaign worker
   checkpoints once per seed, so the span tail is the file-size
   budget. *)
let worker_main t parent jobs_r results_w =
  let code =
    try
      Sys.set_signal Sys.sigalrm
        (Sys.Signal_handle
           (fun _ -> if Unix.getppid () <> parent then Unix._exit 0));
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { Unix.it_interval = 0.2; it_value = 0.2 });
      close_inherited [ jobs_r; results_w ];
      let send_dump = Obs.enabled () in
      Obs.reset ();
      Option.iter
        (fun dir ->
          Obs.set_enabled true;
          (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
          Obs.flight_start ~last:8
            (Filename.concat dir
               (Printf.sprintf "flight-%d.jsonl" (Unix.getpid ())));
          Obs.flight_checkpoint ~reason:"worker-start" ())
        t.flight;
      let ic = Unix.in_channel_of_descr jobs_r in
      let oc = Unix.out_channel_of_descr results_w in
      let rec serve () =
        match Marshal.from_channel ic with
        | exception End_of_file ->
            if Obs.flight_active () then Obs.flight_stop ();
            0
        | attempt, job -> (
            Obs.reset ();
            match t.run ~attempt job with
            | exception _ -> exit_raised
            | v ->
                let dump = if send_dump then Some (Obs.dump ()) else None in
                Marshal.to_channel oc (v, dump) [];
                flush oc;
                serve ())
      in
      serve ()
    with _ -> exit_protocol
  in
  Unix._exit code

let fork_worker t =
  let jobs_r, jobs_w = Unix.pipe ~cloexec:true () in
  let results, results_w = Unix.pipe ~cloexec:true () in
  let parent = Unix.getpid () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 -> worker_main t parent jobs_r results_w
  | pid ->
      Unix.close jobs_r;
      Unix.close results_w;
      Unix.set_nonblock results;
      { pid; jobs_w; results; buf = Buffer.create 4096; eof = false;
        busy = None }

let create ?flight ~jobs run =
  let t =
    { run; flight; chunk = Bytes.create 65536; workers = []; retries = [] }
  in
  t.workers <- List.init (max 1 jobs) (fun _ -> fork_worker t);
  t

let busy t =
  List.fold_left (fun n w -> if Option.is_none w.busy then n else n + 1) 0
    t.workers

let retrying t = List.length t.retries
let running t = busy t + retrying t
let fds t = List.map (fun w -> w.results) t.workers

let rec waitpid pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

(* A dead worker: reap it, classify its job's loss if it had one, and
   put a fresh worker in its place. *)
let replace t w =
  Unix.close w.jobs_w;
  Unix.close w.results;
  let killed = match w.busy with Some b -> b.killed | None -> false in
  let loss =
    match waitpid w.pid with
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> Vanished
    | Unix.WEXITED n -> Exited n
    | Unix.WSIGNALED _ when killed -> Deadline
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> Signaled s
  in
  t.workers <- fork_worker t :: List.filter (fun x -> x != w) t.workers;
  loss

(* The job pipe is written blocking: the worker is idle, so it is
   reading.  A worker that died idle is replaced and the job goes to
   the next one; SIGPIPE is held off so its death is an [EPIPE]. *)
let rec start t held =
  match List.find_opt (fun w -> Option.is_none w.busy) t.workers with
  | None -> invalid_arg "Supervisor.submit: no idle worker"
  | Some w ->
      let attempt = if held.first = None then 1 else 2 in
      let msg = Marshal.to_bytes (attempt, held.job) [] in
      let pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
      let rec send off =
        if off < Bytes.length msg then
          match Unix.single_write w.jobs_w msg off (Bytes.length msg - off) with
          | n -> send (off + n)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> send off
      in
      let sent =
        match send 0 with
        | () -> true
        | exception Unix.Unix_error (Unix.EPIPE, _, _) -> false
      in
      Sys.set_signal Sys.sigpipe pipe;
      if not sent then begin
        ignore (replace t w);
        start t held
      end
      else begin
        let now = Unix.gettimeofday () in
        let deadline =
          match held.window with Some s -> now +. s | None -> infinity
        in
        w.busy <- Some { held; started = now; deadline; killed = false }
      end

let submit t ?deadline job = start t { job; window = deadline; first = None }

(* Due retries go first: each takes an idle worker while there is one. *)
let rec start_due t =
  match t.retries with
  | (due, held) :: rest
    when due <= Unix.gettimeofday () && busy t < List.length t.workers ->
      t.retries <- rest;
      start t held;
      start_due t
  | _ -> ()

let free t = List.length t.workers - busy t

let read t w =
  let rec go () =
    match Unix.read w.results t.chunk 0 (Bytes.length t.chunk) with
    | 0 -> w.eof <- true
    | n ->
        Buffer.add_subbytes w.buf t.chunk 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let complete w =
  let n = Buffer.length w.buf in
  n >= Marshal.header_size
  && n
     >= Marshal.total_size
          (Bytes.of_string (Buffer.sub w.buf 0 Marshal.header_size))
          0

(* A retry's due time bounds the wait only while a worker is idle to
   take it; otherwise a job's end comes first. *)
let wait t ?(until = infinity) () =
  let next =
    List.fold_left
      (fun acc w ->
        match w.busy with
        | Some b when not b.killed -> Float.min acc b.deadline
        | _ -> acc)
      (match t.retries with
      | (due, _) :: _ when busy t < List.length t.workers -> Float.min until due
      | _ -> until)
      t.workers
  in
  if running t = 0 && next = infinity then []
  else begin
    let timeout =
      if next = infinity then -1.
      else Float.max 0. (next -. Unix.gettimeofday ())
    in
    (match Unix.select (fds t) [] [] timeout with
    | ready, _, _ ->
        List.iter (fun w -> if List.mem w.results ready then read t w) t.workers
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    let now = Unix.gettimeofday () in
    let ended = ref [] in
    List.iter
      (fun w ->
        match w.busy with
        | Some b when complete w ->
            let v, dump = Marshal.from_string (Buffer.contents w.buf) 0 in
            Buffer.clear w.buf;
            w.busy <- None;
            if Obs.enabled () then Option.iter (Obs.merge ~tid:w.pid) dump;
            ended := (b.held.job, now -. b.started, Returned v) :: !ended
        | Some b when (not b.killed) && now >= b.deadline ->
            b.killed <- true;
            (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ())
        | _ -> ())
      t.workers;
    (* a first loss is held for its retry; a second ends the job *)
    List.iter
      (fun w ->
        if w.eof then
          let loss = replace t w in
          Option.iter
            (fun b ->
              let job = b.held.job in
              match b.held.first with
              | None ->
                  let held = { b.held with first = Some loss } in
                  t.retries <- t.retries @ [ (now +. retry_delay, held) ]
              | Some first ->
                  ended :=
                    (job, now -. b.started, Lost (first, loss)) :: !ended)
            w.busy)
      t.workers;
    start_due t;
    List.rev !ended
  end

let close t =
  List.iter
    (fun w ->
      if Option.is_some w.busy then
        (try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ());
      Unix.close w.jobs_w)
    t.workers;
  List.iter
    (fun w ->
      Unix.close w.results;
      try ignore (waitpid w.pid) with Unix.Unix_error _ -> ())
    t.workers;
  t.workers <- [];
  t.retries <- []
