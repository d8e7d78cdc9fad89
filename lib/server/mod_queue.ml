module Spinlock = Repro_sync.Spinlock
module Backoff = Repro_sync.Backoff
module Metrics = Repro_sync.Metrics
module Trace = Repro_sync.Trace
module Stats = Repro_sync.Stats
module Fault = Repro_fault.Fault
module Lockdep = Repro_lockdep.Lockdep

(* Bounded MPSC modification queue: many client domains enqueue, one
   updater domain drains. A spinlock-guarded ring rather than a lock-free
   queue on purpose: the critical section is a handful of stores, the
   lock gives lockdep a class to validate (the lock-free baselines are
   invisible to it), and the bound is what produces backpressure — a
   lock-free unbounded queue would just move the overload into memory. *)

type op = Insert of int * int | Delete of int

(* 0 = pending, 1 = completed false, 2 = completed true, 3 = aborted,
   4 = expired, 5 = replayed false, 6 = replayed true.
   A completion is write-once (complete / abort / expire / replay) and
   spin-read (await); no lock, so a waiter costs the updater nothing.
   Every resolver only wins from the pending state — a resolved
   completion stays resolved, so a purge racing the updater's completion
   store never un-resolves a result a waiter may already have read. *)
type completion = int Atomic.t

type status =
  | Pending
  | Done of bool
  | Aborted
  | Expired
  | Replayed of bool

let completion () = Atomic.make 0

let complete c result = ignore (Atomic.compare_and_set c 0 (if result then 2 else 1))

let abort c = ignore (Atomic.compare_and_set c 0 3)

let expire c = ignore (Atomic.compare_and_set c 0 4)

let complete_replayed c result =
  ignore (Atomic.compare_and_set c 0 (if result then 6 else 5))

let status_of_code = function
  | 0 -> Pending
  | 1 -> Done false
  | 2 -> Done true
  | 4 -> Expired
  | 5 -> Replayed false
  | 6 -> Replayed true
  | _ -> Aborted

let peek c = status_of_code (Atomic.get c)

let await c =
  let b = Backoff.create () in
  let rec go () =
    match Atomic.get c with
    | 0 ->
        Backoff.once b;
        go ()
    | code -> status_of_code code
  in
  go ()

type entry = {
  op : op;
  completion : completion option;
  enqueued_at : int;
  deadline_ns : int;
  probe : bool;
}

let dummy =
  {
    op = Delete 0;
    completion = None;
    enqueued_at = 0;
    deadline_ns = 0;
    probe = false;
  }

type t = {
  id : int;
  depth : int;
  lock : Spinlock.t;
  buf : entry array;
  (* The cursors/counters below are guarded by [lock]; [length] reads
     [len] without it (racy snapshot, documented). *)
  mutable head : int; (* next slot to drain *)
  mutable len : int;
  mutable enqueued : int;
  mutable dropped : int;
  mutable drained : int;
  mutable purged : int;
  mutable max_depth : int;
  mutable closed : bool; (* guarded by [lock]; one-way, see [close] *)
  (* Staleness watchdog state, outside the lock: the producer-side check
     must stay cheap and must keep working when the consumer is wedged
     (the very condition it reports), so it cannot depend on the lock
     discipline of the draining side. *)
  last_drain_ns : int Atomic.t;
  last_warn_ns : int Atomic.t;
  drainer : int Atomic.t; (* domain id of the last draining domain; -1 = none *)
}

type stats = {
  enqueued : int;
  dropped : int;
  drained : int;
  purged : int;
  max_depth : int;
  depth : int;
}

(* One lockdep class for every modification-queue lock: the protocol is
   that it is a leaf lock (never held across tree operations — drains
   splice entries out and release before applying), so no dependency
   edge from it to the Tree_node classes may ever appear. *)
let queue_class = Lockdep.new_class Lockdep.Generic "server.mod_queue"

let fp_enqueue = Fault.register "server.enqueue"
let fp_drain = Fault.register "server.drain"
let fp_drain_stall = Fault.register "server.drain.stall"

let create ?(id = 0) ~depth () =
  if depth <= 0 then invalid_arg "Mod_queue.create: depth must be positive";
  {
    id;
    depth;
    lock = Spinlock.create ~cls:queue_class ();
    buf = Array.make depth dummy;
    head = 0;
    len = 0;
    enqueued = 0;
    dropped = 0;
    drained = 0;
    purged = 0;
    max_depth = 0;
    closed = false;
    last_drain_ns = Atomic.make (Metrics.now_ns ());
    last_warn_ns = Atomic.make 0;
    drainer = Atomic.make (-1);
  }

let id (t : t) = t.id
let depth (t : t) = t.depth
let length t = t.len
let last_drain_ns t = Atomic.get t.last_drain_ns
let drainer_domain t = Atomic.get t.drainer

(* --- staleness watchdog ---

   The grace-period [Stall] pattern ported to the write path: a global
   threshold, checked by producers (the side still alive when the updater
   wedges), one report per threshold window. [last_drain_ns] is bumped by
   every [drain] call — including empty splices — so staleness means "the
   updater has not even looked", not "the queue is busy". *)

let stall_threshold = Atomic.make 0 (* ns; 0 = disarmed *)

let set_stall_threshold_ns ns =
  if ns < 0 then
    invalid_arg "Mod_queue.set_stall_threshold_ns: threshold must be >= 0";
  Atomic.set stall_threshold ns

let stall_threshold_ns () = Atomic.get stall_threshold

let check_stall t =
  let thr = Atomic.get stall_threshold in
  if thr > 0 && t.len > 0 then begin
    let now = Metrics.now_ns () in
    let last = Atomic.get t.last_drain_ns in
    if now - last > thr then begin
      let warn = Atomic.get t.last_warn_ns in
      (* One report per window; the CAS elects a single reporter among
         concurrent producers. *)
      if now - warn > thr && Atomic.compare_and_set t.last_warn_ns warn now
      then begin
        Stats.incr Metrics.mod_queue_stalls (Metrics.slot ());
        Trace.record Trace.Mod_stall t.id;
        let d = Atomic.get t.drainer in
        Printf.eprintf
          "repro_server: mod-queue stall: shard %d not drained for %.1f ms \
           (depth %d/%d, updater domain %s)\n\
           %!"
          t.id
          (float_of_int (now - last) /. 1e6)
          t.len t.depth
          (if d < 0 then "none" else string_of_int d)
      end
    end
  end

type admit = Admitted | Admit_full | Admit_closed

let enqueue t ?completion ?(deadline_ns = 0) ?(probe = false) op =
  (* Fault point fires before the lock so a [Raise] action unwinds with
     the queue untouched. *)
  if Fault.enabled () then Fault.inject fp_enqueue;
  if Atomic.get stall_threshold > 0 then check_stall t;
  let enqueued_at = Metrics.now_ns () in
  Spinlock.acquire t.lock;
  if t.closed then begin
    (* Checked inside the critical section: [close] takes the same lock,
       so once it returns every producer has either landed its entry
       (visible to a later drain or purge) or lands here — nothing can
       slip into a queue whose consumers are gone. *)
    Spinlock.release t.lock;
    Admit_closed
  end
  else if t.len = t.depth then begin
    t.dropped <- t.dropped + 1;
    Spinlock.release t.lock;
    Stats.incr Metrics.mod_drops (Metrics.slot ());
    Admit_full
  end
  else begin
    t.buf.((t.head + t.len) mod t.depth)
    <- { op; completion; enqueued_at; deadline_ns; probe };
    t.len <- t.len + 1;
    if t.len > t.max_depth then t.max_depth <- t.len;
    t.enqueued <- t.enqueued + 1;
    Spinlock.release t.lock;
    Stats.incr Metrics.mod_enqueues (Metrics.slot ());
    Trace.record Trace.Mod_enqueue t.id;
    Admitted
  end

let try_enqueue t ?completion ?deadline_ns ?probe op =
  enqueue t ?completion ?deadline_ns ?probe op = Admitted

let close t =
  Spinlock.acquire t.lock;
  t.closed <- true;
  Spinlock.release t.lock

let is_closed t =
  Spinlock.acquire t.lock;
  let c = t.closed in
  Spinlock.release t.lock;
  c

let drain t ~max =
  if max <= 0 then invalid_arg "Mod_queue.drain: max must be positive";
  if Fault.enabled () then begin
    Fault.inject fp_drain;
    (* A distinct point for wedging the drain side: arm with a [delay_ns]
       action to stall the updater without killing it — the scenario the
       staleness watchdog exists for. *)
    Fault.inject fp_drain_stall
  end;
  Atomic.set t.drainer (Domain.self () :> int);
  Spinlock.acquire t.lock;
  let k = min max t.len in
  let out = Array.init k (fun i -> t.buf.((t.head + i) mod t.depth)) in
  for i = 0 to k - 1 do
    t.buf.((t.head + i) mod t.depth) <- dummy
  done;
  t.head <- (t.head + k) mod t.depth;
  t.len <- t.len - k;
  t.drained <- t.drained + k;
  Spinlock.release t.lock;
  Atomic.set t.last_drain_ns (Metrics.now_ns ());
  if k > 0 then begin
    let slot = Metrics.slot () in
    Stats.add Metrics.mod_drained slot k;
    let now = Metrics.now_ns () in
    Array.iter
      (fun e ->
        Stats.Timer.record Metrics.mod_queue_wait_ns slot (now - e.enqueued_at))
      out;
    Trace.record Trace.Mod_drain k
  end;
  out

let purge t =
  Spinlock.acquire t.lock;
  let k = t.len in
  let out = Array.init k (fun i -> t.buf.((t.head + i) mod t.depth)) in
  for i = 0 to k - 1 do
    t.buf.((t.head + i) mod t.depth) <- dummy
  done;
  t.head <- (t.head + k) mod t.depth;
  t.len <- 0;
  t.purged <- t.purged + k;
  Spinlock.release t.lock;
  Array.iter
    (fun e -> match e.completion with Some c -> abort c | None -> ())
    out;
  if k > 0 then
    Stats.add Metrics.writes_lost (Metrics.slot ()) k;
  k

let stats (t : t) =
  (* Snapshot under the lock: the counters are mutated together inside the
     critical section, so reading them outside it can tear (an enqueue
     between reading [enqueued] and [drained] yields a torn pair like
     enqueued < drained + len). Stats calls are monitoring-rate, never
     hot-path, so the lock is cheap here. *)
  Spinlock.acquire t.lock;
  let s =
    {
      enqueued = t.enqueued;
      dropped = t.dropped;
      drained = t.drained;
      purged = t.purged;
      max_depth = t.max_depth;
      depth = t.depth;
    }
  in
  Spinlock.release t.lock;
  s
