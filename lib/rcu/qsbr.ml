module Registry = Repro_sync.Registry
module Backoff = Repro_sync.Backoff
module Stats = Repro_sync.Stats
module Metrics = Repro_sync.Metrics
module Trace = Repro_sync.Trace
module Fault = Repro_fault.Fault
module San = Repro_sanitizer.Sanitizer
module Lockdep = Repro_lockdep.Lockdep

(* Slot encoding: 0 = offline; otherwise a snapshot of the global
   grace-period counter (always odd, so 0 is unambiguous). A thread is
   quiescent with respect to grace period [gp] if it is offline or its
   snapshot is >= gp. *)

type t = {
  gp : int Atomic.t; (* odd, monotonically increasing; advances per scan *)
  slots : int Atomic.t Registry.t;
  gps : int Atomic.t;
  (* [gp_completed] is the highest scan target fully waited for: some scan
     with target [>= t] observed every online slot at or past its target.
     Scan targets are unique (each scan advances [gp] by 2 and targets the
     result), so [gp_completed >= gp_at_snapshot + 2] proves a scan whose
     counter advance — and therefore whose slot checks — happened entirely
     after the snapshot, i.e. a full grace period elapsed past it. *)
  gp_completed : int Atomic.t;
  (* Scans in flight: the coalescing gate (see Epoch_rcu for the shared
     waiter/fallback structure). *)
  scanning : int Atomic.t;
  (* Wait queue for piggybacking synchronizers (see Epoch_rcu): scanners
     broadcast after every scan, waiters block instead of polling. *)
  waitq : Gp.Waitq.t;
}

type thread = {
  rcu : t;
  index : int;
  slot : int Atomic.t;
  mutable nesting : int;
  (* gp_cookie at the last outermost read_lock; written only while the
     reclamation sanitizer is armed. *)
  mutable entry_cookie : int;
}

type gp_state = int
(* The scan target that must complete: snapshot s satisfied once
   [gp_completed >= s]. *)

let name = "qsbr"

(* Fault point: fires after the grace-period counter advances and before
   the slot scan — the window where QSBR's documented weakness (a thread
   that stops announcing quiescence) bites hardest. *)
let fault_wait = Fault.register "qsbr.wait"

(* Seeded bug (ROBUSTNESS.md, "Mutation suite"): when it fires, a
   *nested* read_lock refreshes the slot to the current grace-period
   counter — announcing a quiescent state while still inside the critical
   section, QSBR's cardinal sin. *)
let bug_quiescent_in_section = Fault.register "bug.qsbr.quiescent_in_section"

let create ?(max_threads = 128) () =
  {
    gp = Atomic.make 1;
    slots =
      Registry.create ~capacity:max_threads ~make:(fun _ ->
          Repro_sync.Padding.spaced_atomic 0);
    gps = Atomic.make 0;
    gp_completed = Atomic.make 0;
    scanning = Atomic.make 0;
    waitq = Gp.Waitq.create ();
  }

let register rcu =
  let index = Registry.acquire rcu.slots in
  let slot = Registry.get rcu.slots index in
  Atomic.set slot 0;
  { rcu; index; slot; nesting = 0; entry_cookie = 0 }

let unregister th =
  if th.nesting <> 0 then
    invalid_arg "Qsbr.unregister: inside a read-side critical section";
  Atomic.set th.slot 0;
  Registry.release th.rcu.slots th.index

let online th =
  if Atomic.get th.slot = 0 then Atomic.set th.slot (Atomic.get th.rcu.gp)

let offline th =
  if th.nesting <> 0 then
    invalid_arg "Qsbr.offline: inside a read-side critical section";
  Atomic.set th.slot 0

let quiescent_state th =
  if th.nesting <> 0 then
    invalid_arg "Qsbr.quiescent_state: inside a read-side critical section";
  Atomic.set th.slot (Atomic.get th.rcu.gp)

(* The S adapter: the outermost read_lock goes online; the outermost
   read_unlock announces quiescence and goes offline, so idle registered
   threads never stall writers. Nested sections cost nothing. *)
let read_lock th =
  if Lockdep.enabled () then Lockdep.rcu_read_enter ~slot:th.index;
  if th.nesting = 0 then begin
    online th;
    if San.enabled () then
      th.entry_cookie <- Protocol.Qsbr.snap ~gp:(Atomic.get th.rcu.gp);
    if Metrics.enabled () then
      Stats.incr Metrics.rcu_read_sections th.index;
    Trace.record Read_enter th.index
  end
  else if Fault.enabled () && Fault.fires bug_quiescent_in_section then
    (* Seeded bug (c): a nested entry treated as a quiescent state — the
       slot jumps to the current counter, releasing any scan that was
       waiting for this (still running) section. *)
    Atomic.set th.slot (Atomic.get th.rcu.gp);
  th.nesting <- th.nesting + 1

let read_unlock th =
  (* Lockdep first (see Epoch_rcu.read_unlock). *)
  if Lockdep.enabled () then Lockdep.rcu_read_exit ();
  if th.nesting <= 0 then
    invalid_arg "Qsbr.read_unlock: not inside a read-side critical section";
  th.nesting <- th.nesting - 1;
  if th.nesting = 0 then begin
    Atomic.set th.slot 0;
    Trace.record Read_exit th.index
  end

let read_gp_seq rcu = Protocol.Qsbr.snap ~gp:(Atomic.get rcu.gp)

let poll rcu snap =
  Protocol.Qsbr.covered ~gp_completed:(Atomic.get rcu.gp_completed) ~snap

let rec post_completed completed n =
  let cur = Atomic.get completed in
  if cur < n && not (Atomic.compare_and_set completed cur n) then
    post_completed completed n

(* One scan: advance the grace period, then wait for each online thread to
   catch up or go offline. Lock-free: concurrent scans wait for (at least)
   their own target. With coalescing on, a scan overtaken by a later one
   (a scan with a higher target posted [gp_completed] past ours, and its
   counter advance followed ours) aborts its remaining slot waits. *)
let scan rcu t0 =
  let target = Atomic.fetch_and_add rcu.gp 2 + 2 in
  if Fault.enabled () then Fault.inject fault_wait;
  let overtaken () =
    Gp.coalescing ()
    && Protocol.Qsbr.covered
         ~gp_completed:(Atomic.get rcu.gp_completed)
         ~snap:target
  in
  let armed = Stall.armed () in
  let thr = if armed then Stall.threshold_ns () else 0 in
  let n = Registry.capacity rcu.slots in
  let i = ref 0 in
  let aborted = ref false in
  while (not !aborted) && !i < n do
    let slot = Registry.get rcu.slots !i in
    let b = Backoff.create () in
    let deadline = ref (t0 + thr) in
    let waiting = ref true in
    while !waiting do
      let v = Atomic.get slot in
      if not (Protocol.Qsbr.blocks ~target v) then waiting := false
      else if overtaken () then begin
        aborted := true;
        waiting := false
      end
      else begin
        Backoff.once b;
        if armed then begin
          let now = Metrics.now_ns () in
          if now > !deadline then begin
            let v = Atomic.get slot in
            if Protocol.Qsbr.blocks ~target v then
              (* nesting: 1 = online behind the target; phase: the
                 grace-period snapshot the reader is stuck at. *)
              Stall.note
                (Stall.report ~flavour:name ~slot:!i ~nesting:1 ~phase:v
                   ~elapsed_ns:(now - t0)
                   ~grace_periods:(Atomic.get rcu.gps));
            deadline := now + thr
          end
        end
      end
    done;
    incr i
  done;
  if not !aborted then post_completed rcu.gp_completed target

let synchronize rcu =
  (* RCU rule 1 (lockdep-enforced, see Epoch_rcu.synchronize). *)
  if Lockdep.enabled () then Lockdep.check_sync ();
  let t0 = Metrics.now_ns () in
  Trace.record Sync_start (Metrics.slot ());
  (* Snapshot before anything else: satisfied once a scan targeting at
     least [gp + 2] completes — such a scan advanced the counter, and then
     checked every slot, after this point. *)
  let snap = Protocol.Qsbr.snap ~gp:(Atomic.get rcu.gp) in
  let coalesced = ref false in
  let finished = ref false in
  while not !finished do
    if Gp.coalescing () && poll rcu snap then begin
      (* A scan targeting >= [snap] already finished: someone else's grace
         period covers this call entirely. *)
      coalesced := true;
      finished := true
    end
    else if (not (Gp.coalescing ())) || Atomic.get rcu.scanning = 0 then begin
      (* Drive a scan ourselves; its target is taken after [snap], so one
         scan always suffices. *)
      coalesced := false;
      Atomic.incr rcu.scanning;
      Fun.protect
        ~finally:(fun () ->
          (* Wake the piggybackers whether the scan completed, aborted as
             overtaken, or raised — they re-check and either return or
             take over the scanning themselves. *)
          Atomic.decr rcu.scanning;
          Gp.Waitq.broadcast rcu.waitq)
        (fun () ->
          (* Cede the CPU before the scan claims its target, so newly
             woken synchronizers snapshot below it and the scan covers
             them (see Epoch_rcu). *)
          if Gp.coalescing () && Gp.Waitq.waiters rcu.waitq > 0 then
            Unix.sleepf 1e-9;
          scan rcu t0);
      finished := true
    end
    else begin
      (* Piggyback on the scan in flight, with the adaptive
         spin/nap/block wait (see Epoch_rcu). If the finished scan proves
         too old and nothing else is scanning, the branch above takes
         over. [Gp.Waitq.wait] re-checks the block predicate under its
         mutex so a completion between the gate check and the wait
         cannot be missed. *)
      coalesced := true;
      let covered () = poll rcu snap in
      let spins = ref 0 in
      while (not (covered ())) && Atomic.get rcu.scanning > 0 && !spins < 64 do
        Domain.cpu_relax ();
        incr spins
      done;
      let naps = ref 0 in
      while (not (covered ())) && Atomic.get rcu.scanning > 0 && !naps < 2 do
        Unix.sleepf 1e-9;
        incr naps
      done;
      if (not (covered ())) && Atomic.get rcu.scanning > 0 && Gp.coalescing ()
      then
        Gp.Waitq.wait rcu.waitq ~block_if:(fun () ->
            (not (covered ()))
            && Atomic.get rcu.scanning > 0
            && Gp.coalescing ())
    end
  done;
  ignore (Atomic.fetch_and_add rcu.gps 1);
  let dt = Metrics.now_ns () - t0 in
  if Metrics.enabled () then begin
    Stats.Timer.record Metrics.grace_period_ns (Metrics.slot ()) dt;
    if !coalesced then Stats.incr Metrics.sync_coalesced (Metrics.slot ())
  end;
  if !coalesced then Trace.record Sync_coalesced (Metrics.slot ());
  Trace.record Sync_end dt

let cond_synchronize rcu snap =
  (* Checked even on the elided path (see Epoch_rcu.cond_synchronize). *)
  if Lockdep.enabled () then Lockdep.check_sync ();
  if not (poll rcu snap) then synchronize rcu

let grace_periods rcu = Atomic.get rcu.gps
let gp_cookie rcu = read_gp_seq rcu
let reader_slot th = th.index
let reader_cookie th = th.entry_cookie
