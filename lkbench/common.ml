(* Shared plumbing of the workloads: clocks, order statistics, scratch
   files, golden-verdict parsing, the meter every workload measures
   with and the outcome every workload returns. *)

let now = Unix.gettimeofday
let nproc () = Domain.recommended_domain_count ()

(* Scratch space for campaign directories, results and exported traces.
   Relative on purpose: the bench reads and writes only inside the
   checkout it runs in. *)
let out_dir = "_lkbench"

let rec ensure_dir d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    ensure_dir (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* A fresh, empty scratch directory [_lkbench/<name>]. *)
let fresh_dir name =
  let d = Filename.concat out_dir name in
  rm_rf d;
  ensure_dir d;
  d

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let lines_of path =
  read_file path |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let verdict_of_string = function
  | "Allow" -> Some Exec.Check.Allow
  | "Forbid" -> Some Exec.Check.Forbid
  | _ -> None

let verdict_name = function
  | Exec.Check.Allow -> "Allow"
  | Exec.Check.Forbid -> "Forbid"
  | Exec.Check.Unknown _ -> "Unknown"

(* Seeded Fisher-Yates shuffle of a copy. *)
let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------------ *)
(* Samples and order statistics                                        *)
(* ------------------------------------------------------------------ *)

(* Per-operation samples in fixed-size chunks, so the bench's memory
   grows in step with the sample count: a vector that doubles moved
   corpus's peak_rss_mb by 2 MiB between runs either side of 2^17
   samples. *)
module Samples = struct
  let chunk = 16384

  type t = { mutable full : float array list; mutable cur : float array; mutable k : int }

  let create () = { full = []; cur = Array.make chunk 0.; k = 0 }

  let add t x =
    if t.k = chunk then begin
      t.full <- t.cur :: t.full;
      t.cur <- Array.make chunk 0.;
      t.k <- 0
    end;
    t.cur.(t.k) <- x;
    t.k <- t.k + 1

  let length t = (List.length t.full * chunk) + t.k

  let sorted t =
    let s = Array.concat (Array.sub t.cur 0 t.k :: t.full) in
    Array.sort Float.compare s;
    s
end

(* Linear interpolation between closest ranks ([s] sorted, non-empty). *)
let quantile s q =
  let n = Array.length s in
  let h = q *. float_of_int (n - 1) in
  let i = int_of_float h in
  if i >= n - 1 then s.(n - 1) else s.(i) +. ((h -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median xs =
  let s = Array.of_list xs in
  Array.sort Float.compare s;
  quantile s 0.5

(* The tail percentile a timing is reported at: the highest one with at
   least ten samples beyond it, capped at p99 (so p99 from 1000 samples
   on).  Returns the quantile used with the value. *)
let tail s =
  let n = Array.length s in
  let q = Float.max 0.5 (Float.min 0.99 (1. -. (10. /. float_of_int n))) in
  (q, quantile s q)

(* ------------------------------------------------------------------ *)
(* Peak memory                                                         *)
(* ------------------------------------------------------------------ *)

external maxrss_self : unit -> int = "lkbench_maxrss_self"
external maxrss_children : unit -> int = "lkbench_maxrss_children"

(* The largest resident set over the bench process and every child it
   has reaped (campaign workers), in MiB. *)
let peak_rss_mb () =
  float_of_int (max (maxrss_self ()) (maxrss_children ())) /. 1024.

(* ------------------------------------------------------------------ *)
(* CPU time                                                            *)
(* ------------------------------------------------------------------ *)

(* Timings start from CPU seconds, not wall seconds: on a shared virtual
   machine the host runs other guests on our cores for a varying share
   of each minute, which wall time counts and CPU time does not (the
   kernel accounts that share as steal time).  The bench spawns no
   domain or thread, so process time is the checking thread's time. *)
external cpu_self : unit -> float = "lkbench_cpu_self"
external cpu_children : unit -> float = "lkbench_cpu_children"

(* The bench process plus every child reaped so far (campaign workers). *)
let cpu () = cpu_self () +. cpu_children ()

(* ------------------------------------------------------------------ *)
(* Reference seconds                                                   *)
(* ------------------------------------------------------------------ *)

(* CPU time is not enough: the host's speed per CPU second moves too
   (by 15-30% over minutes on the shared 2-vCPU machine this was tuned
   on), with the frequency and the load on sibling hyperthreads and
   shared caches.  So every timing is converted to reference seconds:
   between windows of work the bench times [reference], a fixed
   computation of its own (hashing, allocation, sorting; none of it the
   checker's code, so no change to the program moves it) and scales the
   window's CPU times by [reference_s] over that time.  A reference
   second is a CPU second on a machine that runs [reference] in
   [reference_s].  Over eight corpus runs whose verdicts per CPU second
   spread by 19% (half of them next to two CPU hogs), verdicts per
   reference second spread by 2%. *)
let reference () =
  let x = ref 12345 in
  for _ = 1 to 4 do
    let h = Hashtbl.create 1024 in
    for i = 0 to 9_999 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      Hashtbl.replace h (!x land 0x3fff) (i, !x)
    done;
    let l = List.sort compare (List.init 10_000 (fun i -> (i * 7919) land 0xffff)) in
    ignore (Sys.opaque_identity (Hashtbl.length h + List.length l))
  done

let reference_s = 0.010

(* ------------------------------------------------------------------ *)
(* The meter every workload measures with                              *)
(* ------------------------------------------------------------------ *)

(* A timed loop is cut into windows, each one pass over the same inputs
   (or one campaign slice).  At the end of each window the meter times
   [reference] and one repetition of the program's set-up, and converts
   the window's figures to reference seconds.  Throughput and set-up
   are medians over the windows, so contention that spans a few
   windows of a run does not move them; per-operation times are
   pooled.  A window left open when the run ends is dropped. *)
module Meter = struct
  type t = {
    setup : unit -> unit;
    mutable c0 : float;
    mutable n : int;  (** operations in the open window *)
    pending : float Queue.t;  (** its per-operation CPU seconds *)
    op_s : Samples.t;  (** per-operation reference seconds *)
    mutable rates : float list;  (** operations per reference second *)
    mutable setups : float list;  (** set-up reference seconds *)
    mutable refs : float list;  (** CPU seconds of [reference] *)
  }

  let time f =
    let c0 = cpu () in
    f ();
    cpu () -. c0

  let start ~setup =
    {
      setup;
      c0 = cpu ();
      n = 0;
      pending = Queue.create ();
      op_s = Samples.create ();
      rates = [];
      setups = [];
      refs = [];
    }

  (* [ops] operations done in one timed call of [cpu_s] CPU seconds. *)
  let record m ~ops cpu_s =
    m.n <- m.n + ops;
    Queue.add cpu_s m.pending

  (* The window ends here; the next one starts after the reference and
     set-up timings.  A window is scaled by the median of the last
     [recent] reference timings: short windows (a campaign slice) would
     otherwise carry the noise of a single one.  Closing a window
     without operations only restarts it. *)
  let recent = 5

  let close m =
    let busy = cpu () -. m.c0 in
    if m.n > 0 && busy > 0. then begin
      m.refs <- time reference :: m.refs;
      let scale = reference_s /. median (List.filteri (fun i _ -> i < recent) m.refs) in
      m.rates <- (float_of_int m.n /. (busy *. scale)) :: m.rates;
      Queue.iter (fun s -> Samples.add m.op_s (s *. scale)) m.pending;
      m.setups <- (time m.setup *. scale) :: m.setups
    end;
    Queue.clear m.pending;
    m.n <- 0;
    m.c0 <- cpu ()

  let windows m = List.length m.rates
  let rate m = median m.rates
  let setup_s m = median m.setups
  let op_s m = Samples.sorted m.op_s

  (* How slow the host ran: the median CPU time of [reference] over
     [reference_s]. *)
  let slowness m = median m.refs /. reference_s
end

(* ------------------------------------------------------------------ *)
(* What a workload hands back                                          *)
(* ------------------------------------------------------------------ *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;  (** name -> value; units live in Spec *)
  notes : (string * string) list;  (** human-readable extras, printed *)
}

(* Wrong answers are reported on stderr as they are found; the outcome
   carries only the verdict of the whole run. *)
let wrong fmt = Printf.ksprintf (fun s -> prerr_endline ("lkbench: WRONG: " ^ s)) fmt

(* The in-process oracles under their bench names.  [cat] compiles
   lk.cat; callers that time set-up build their own. *)
let cat_oracle () = Cat.to_oracle ~name:"LK(cat)" (Cat.parse Cat.Stdmodels.lk)
let c11_oracle = Exec.Oracle.of_model (module Models.C11)

(* The end-to-end metrics and notes of a metered run (Spec.end_to_end);
   [what] names an operation. *)
let metered ~what ~wall m ~attempted ~failed =
  let s = Meter.op_s m in
  let q, tail_v = tail s in
  ( [
      ("setup_s", Meter.setup_s m);
      ("ops_per_ref_s", Meter.rate m);
      ("op_ref_p50_ms", 1e3 *. quantile s 0.5);
      ("op_ref_tail_ms", 1e3 *. tail_v);
      ("ok_share", 1. -. (float_of_int failed /. float_of_int (max 1 attempted)));
      ("peak_rss_mb", peak_rss_mb ());
    ],
    [
      ( "ref_s",
        Printf.sprintf
          "times are reference seconds: CPU seconds scaled to a host that runs the reference in \
           %g ms; this host took %.3fx that (median of %d windows)"
          (1e3 *. reference_s) (Meter.slowness m) (Meter.windows m) );
      ( "op",
        Printf.sprintf "%s, p50 and p%g of %d samples" what (100. *. q) (Samples.length m.Meter.op_s) );
      ("wall", Printf.sprintf "%.1f operations per wall second" (float_of_int attempted /. wall));
    ] )
