(** Campaign manifest: the crash-safe shard ledger of {!Campaign}.

    A campaign over 10^5+ generated tests is partitioned into shards —
    each a deterministic (generator config, seed range) pair whose
    tests are regenerated on demand inside workers, never stored.  The
    manifest journals every shard-state transition as one JSONL line
    (appended through {!Journal.write_line}), so a [kill -9] at any
    byte offset loses at most the line being written; {!load} replays
    the surviving prefix with the same torn-tail tolerance as every
    other journal in the tree.  A lease names no worker and no attempt:
    the {!Supervisor} owns the retry, and an orphaned worker exits by
    itself. *)

(** The campaign's identity: generator config plus seed interval.  Two
    manifests with different specs describe different campaigns — shard
    ranges are only meaningful relative to the spec that named them,
    and {!open_} refuses to resume across a mismatch. *)
type spec = {
  size : int;  (** cycle length handed to the generator *)
  seed_lo : int;  (** inclusive *)
  seed_hi : int;  (** exclusive *)
  shard_size : int;  (** seeds per initial shard *)
}

(** One mined disagreement row: [seed] regenerates the test on demand,
    [verdicts] maps model name to verdict string (sorted by model),
    [kinds] the disagreement classes the row exhibits (sorted). *)
type row = {
  seed : int;
  test : string;
  verdicts : (string * string) list;
  kinds : string list;
}

(** The compacted residue of a finished shard — everything mining needs
    once the per-seed result journal is deleted (the disk-budget
    guard).  [rows] is capped by the orchestrator; [rows_dropped]
    surfaces the cap, never silently. *)
type summary = {
  n_seeds : int;
  n_tests : int;
  n_unknown : int;
  counts : (string * int) list;  (** ["lk:Allow"] -> n, sorted by key *)
  rows : row list;  (** disagreement rows, seed order *)
  rows_dropped : int;
  time_s : float;
}

type state =
  | Pending
  | Leased of { since : float }  (** handed to a worker at [since] *)
  | Done of summary
  | Quarantined of { attempts : int; error : string }
      (** a singleton lost by [attempts] workers; [error] says how the
          last one was lost *)

type shard = { lo : int; hi : int; state : state }

type event =
  | Lease of { lo : int; hi : int; since : float }
  | Requeue of { lo : int; hi : int }
      (** back to Pending: a stale lease on resume, or a shard whose
          worker returned with seeds missing from its journal *)
  | Split of { lo : int; hi : int; mid : int }
      (** replace \[lo,hi) by \[lo,mid) and \[mid,hi), both Pending *)
  | Completed of { lo : int; hi : int; summary : summary }
  | Quarantine of { lo : int; hi : int; attempts : int; error : string }

type t

val shard_id : int -> int -> string
(** ["s<lo>-<hi>"] — names the shard's result journal file. *)

val create : string -> spec -> t
(** Fresh manifest at [path]: writes the header line, all shards
    Pending. *)

val load : string -> (t, string) result
(** Replay a manifest read-only (no writer; {!record} raises).  Events
    naming unknown shard ranges and unparseable lines are dropped, and
    so are the fields older manifests carry (a lease's [attempt] and
    [pid], a requeue's [failed]).
    [Error] when the file is missing or its header never hit the
    disk. *)

val open_ : string -> spec -> (t, string) result
(** Resume-or-create for writing: replays [path] if it exists and its
    spec matches, starts fresh if absent (or the header was torn),
    refuses a spec mismatch. *)

val record : t -> event -> unit
(** Apply [event] in memory and append its line to the journal. *)

val spec : t -> spec

val shards : t -> shard list
(** All shards, sorted by [lo]. *)

val close : t -> unit
