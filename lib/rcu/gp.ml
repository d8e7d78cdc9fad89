(* The grace-period driver shared by all three flavours. Each flavour
   keeps only its own encoding — its read side, how a slot word blocks a
   grace period, how a lock-free scan claims its number, urcu's lock and
   phase flips — and hands the rest to this file: the synchronize frame
   (lockdep check, timing, trace and metrics), the one reader wait with
   its stall watchdog, and the coalescing gate of the lock-free flavours.
   Nothing here knows which flavour calls it. *)

module Registry = Repro_sync.Registry
module Backoff = Repro_sync.Backoff
module Stats = Repro_sync.Stats
module Metrics = Repro_sync.Metrics
module Trace = Repro_sync.Trace
module Lockdep = Repro_lockdep.Lockdep

(* Process-global coalescing switch, so `bench/main.exe -- gp` can A/B the
   exact same binary: every flavour with coalescing off (the
   pre-coalescing independent-scan behaviour) and on. *)
let coalesce = Atomic.make true

let set_coalescing b = Atomic.set coalesce b
let coalescing () = Atomic.get coalesce

type t = {
  flavour : string;
  (* One padded word per reader thread; only the owner writes its slot,
     grace periods only read. *)
  slots : int Atomic.t Registry.t;
  gps : int Atomic.t;
  (* The flavour's slot encoding. A word with no bit of [busy] set is a
     reader outside any section, which blocks nothing; it is tested
     inline, so the scan over idle slots makes no call. Otherwise: does
     word [v] block a grace period with [target], given that the scan
     first saw [first] in this slot? And how to name the reader's
     nesting and phase in a stall report. *)
  busy : int;
  blocks : target:int -> first:int -> int -> bool;
  nesting : int -> int;
  phase : int -> int;
}

let create ~flavour ~max_threads ~busy ~blocks ~nesting ~phase =
  {
    flavour;
    slots =
      Registry.create ~capacity:max_threads ~make:(fun _ ->
          Repro_sync.Padding.spaced_atomic 0);
    gps = Atomic.make 0;
    busy;
    blocks;
    nesting;
    phase;
  }

let slots t = t.slots
let grace_periods t = Atomic.get t.gps

(* --- the synchronize frame --- *)

let synchronize t body ctx =
  (* RCU rule 1 (lockdep-enforced): a grace-period wait inside a
     read-side critical section can never return — the waiter is the
     reader it waits for. Checked before any lock queue or slot scan. *)
  if Lockdep.enabled () then Lockdep.check_sync ();
  let t0 = Metrics.now_ns () in
  Trace.record Sync_start (Metrics.slot ());
  let coalesced = body ctx ~t0 in
  Atomic.incr t.gps;
  let dt = Metrics.now_ns () - t0 in
  if Metrics.enabled () then begin
    Stats.Timer.record Metrics.grace_period_ns (Metrics.slot ()) dt;
    if coalesced then Stats.incr Metrics.sync_coalesced (Metrics.slot ())
  end;
  if coalesced then Trace.record Sync_coalesced (Metrics.slot ());
  Trace.record Sync_end dt

(* --- the reader wait --- *)

(* Wait until slot [i], which the scan first read as [first] and found
   blocking [target], lets go, or until [abort ()] says the wait is moot.
   Returns [true] when the slot let go, [false] when aborted. With the
   watchdog [armed], each backoff step also checks the deadline and emits
   one stall report per threshold window (Fail mode raises out of it). *)
let wait_slot t ~t0 ~armed ~thr ~target ~abort i slot first =
  let b = Backoff.create () in
  let deadline = ref (t0 + thr) in
  let released = ref false in
  let aborted = ref false in
  while not (!released || !aborted) do
    if abort () then aborted := true
    else begin
      Backoff.once b;
      if armed then begin
        let now = Metrics.now_ns () in
        if now > !deadline then begin
          let v = Atomic.get slot in
          if t.blocks ~target ~first v then
            Stall.note
              (Stall.report ~flavour:t.flavour ~slot:i ~nesting:(t.nesting v)
                 ~phase:(t.phase v) ~elapsed_ns:(now - t0)
                 ~grace_periods:(Atomic.get t.gps));
          deadline := now + thr
        end
      end;
      released := not (t.blocks ~target ~first (Atomic.get slot))
    end
  done;
  !released

(* Wait out every slot in turn; stop at the first aborted wait. An idle
   slot costs one load and one mask test: the backoff state is only
   created once a slot actually blocks. *)
let wait_readers t ~t0 ~target ~abort =
  let armed = Stall.armed () in
  let thr = if armed then Stall.threshold_ns () else 0 in
  let slots = t.slots and busy = t.busy and blocks = t.blocks in
  let n = Registry.capacity slots in
  let i = ref 0 in
  let finished = ref true in
  while !finished && !i < n do
    let slot = Registry.get slots !i in
    let first = Atomic.get slot in
    if first land busy <> 0 && blocks ~target ~first first then
      finished := wait_slot t ~t0 ~armed ~thr ~target ~abort !i slot first;
    incr i
  done;
  !finished

let never () = false

let wait_for_readers t ~t0 ~target =
  ignore (wait_readers t ~t0 ~target ~abort:never)

(* --- the coalescing gate --- *)

(* The one wait queue in the library, and the only Mutex/Condition use
   (`dune build @lint` forbids them everywhere else). The condvar wait
   shares the lockdep RCU-context check with [synchronize]: blocking on a
   grace period from inside a read-side critical section is the same
   self-deadlock whichever wait path takes it. *)
module Waitq = struct
  type t = {
    mu : Mutex.t;
    cond : Condition.t;
    (* Number of synchronizers blocked on [cond] (or about to be): lets
       scanners skip their pre-scan cede when nobody is waiting. *)
    waiters : int Atomic.t;
  }

  let create () =
    { mu = Mutex.create (); cond = Condition.create (); waiters = Atomic.make 0 }

  let waiters t = Atomic.get t.waiters

  let broadcast t =
    Mutex.lock t.mu;
    Condition.broadcast t.cond;
    Mutex.unlock t.mu

  (* Block until broadcast, unless [block_if] says the wait is already
     satisfied. The predicate is re-checked under the mutex so a
     completion between the caller's gate check and the wait cannot be
     missed (scanners broadcast under the same mutex). *)
  let wait t ~block_if =
    if Lockdep.enabled () then Lockdep.check_sync ();
    Atomic.incr t.waiters;
    Mutex.lock t.mu;
    if block_if () then Condition.wait t.cond t.mu;
    Mutex.unlock t.mu;
    Atomic.decr t.waiters
end

type gate = {
  covered : gp_completed:int -> snap:int -> bool;
  (* Highest scan number whose full reader wait finished, posted
     monotonically: concurrent scans finish out of order. *)
  gp_completed : int Atomic.t;
  (* Number of scans in flight. A synchronizer that finds one waits for
     [gp_completed] to pass its snapshot instead of scanning redundantly. *)
  scanning : int Atomic.t;
  (* Piggybacking synchronizers block here: scanners broadcast after
     every scan (and on the way out of an aborted or raising one) — the
     analogue of the kernel's RCU wait queues. Polling instead is not
     just wasteful: on few cores the polls steal the CPU from the very
     scan being waited for. *)
  waitq : Waitq.t;
}

let gate ~covered =
  {
    covered;
    gp_completed = Atomic.make 0;
    scanning = Atomic.make 0;
    waitq = Waitq.create ();
  }

let completed g = Atomic.get g.gp_completed

let covers g snap =
  g.covered ~gp_completed:(Atomic.get g.gp_completed) ~snap

(* Monotonic-max post: an older scan must never regress the completed
   number a newer one published. *)
let rec post_completed g n =
  let cur = Atomic.get g.gp_completed in
  if cur < n && not (Atomic.compare_and_set g.gp_completed cur n) then
    post_completed g n

(* One full scan. The cede before claiming the number: synchronizers just
   woken by the previous broadcast get to run, take their snapshots while
   the scan number still reads one below this scan's, and enqueue — so
   the scan about to start covers all of them. Without it, on
   oversubscribed cores the first woken waiter grabs the scanner role
   and claims a number before the others run, pushing their snapshots
   out by a whole extra grace period (the kernel's cond_resched() before
   starting a new GP). Skipped when nobody is waiting. The call is
   [Unix.sleepf 1e-9], which on Linux sleeps out the timer slack (50 µs
   by default), not a bare yield.

   With coalescing on, the reader wait aborts as soon as [gp_completed]
   reaches this scan's number: a scan that started after this one
   already finished, so every reader still waited for is known to have
   left. Aborting posts nothing — the overtaking scan already did. *)
let scan t g ~t0 claim ctx =
  if coalescing () && Waitq.waiters g.waitq > 0 then Unix.sleepf 1e-9;
  let my = claim ctx in
  let overtaken () = coalescing () && covers g my in
  if wait_readers t ~t0 ~target:my ~abort:overtaken then post_completed g my

(* Drive a scan, then wake the piggybackers whether it completed, aborted
   as overtaken, or raised ([Stall.Stalled] in fail mode): they re-check
   the completed number and the gate and either return or take over the
   scanning themselves. *)
let finish_scan g =
  Atomic.decr g.scanning;
  Waitq.broadcast g.waitq

let drive t g ~t0 claim ctx =
  Atomic.incr g.scanning;
  match scan t g ~t0 claim ctx with
  | () -> finish_scan g
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish_scan g;
      Printexc.raise_with_backtrace e bt

let in_flight g snap = (not (covers g snap)) && Atomic.get g.scanning > 0

(* Piggyback on the scan in flight. The wait is adaptive, because scan
   cost spans three orders of magnitude with registry size: spin briefly
   (a small-registry scan is microseconds from finishing), nap twice
   (each nap sleeps out the timer slack and hands the core to the
   scanner), and only then block on the wait queue — a condvar wakeup
   costs a scheduler latency, which dwarfs short scans but is the only
   thing that doesn't steal CPU from long ones. *)
let piggyback g snap =
  let spins = ref 0 in
  while in_flight g snap && !spins < 64 do
    Domain.cpu_relax ();
    incr spins
  done;
  let naps = ref 0 in
  while in_flight g snap && !naps < 2 do
    Unix.sleepf 1e-9;
    incr naps
  done;
  if in_flight g snap && coalescing () then
    Waitq.wait g.waitq ~block_if:(fun () -> in_flight g snap && coalescing ())

(* Satisfy a synchronize whose snapshot is [snap]: return at once if a
   scan numbered >= [snap] already finished (elision); piggyback if a
   scan is in flight; otherwise drive one, whose number [claim] takes
   after [snap], so one scan always suffices. If the awaited scan turns
   out to be too old and no other scan is in flight, the drive branch
   takes over — that fallback keeps the loop deadlock-free without any
   handshake between synchronizers. Returns whether the call was
   coalesced, i.e. did not drive the scan that satisfied it. *)
let rec coalesce t g ~t0 ~snap claim ctx =
  if coalescing () && covers g snap then true
  else if (not (coalescing ())) || Atomic.get g.scanning = 0 then begin
    drive t g ~t0 claim ctx;
    false
  end
  else begin
    piggyback g snap;
    coalesce t g ~t0 ~snap claim ctx
  end
