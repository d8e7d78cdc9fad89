module Registry = Repro_sync.Registry
module Stats = Repro_sync.Stats
module Metrics = Repro_sync.Metrics
module Trace = Repro_sync.Trace
module Fault = Repro_fault.Fault
module Lockdep = Repro_lockdep.Lockdep
module Arm = Repro_fault.Arm

(* Slot encoding: 0 = offline; otherwise a snapshot of the global
   grace-period counter (always odd, so 0 is unambiguous). A thread is
   quiescent with respect to grace period [gp] if it is offline or its
   snapshot is >= gp. *)

type t = {
  gp : int Atomic.t; (* odd, monotonically increasing; advances per scan *)
  driver : Gp.t;
  (* The gate's completed number is the highest scan target fully waited
     for: some scan with target [>= t] observed every online slot at or
     past its target. Scan targets are unique (each scan advances [gp] by
     2 and targets the result), so a completed number
     [>= gp_at_snapshot + 2] proves a scan whose counter advance — and
     therefore whose slot checks — happened entirely after the snapshot,
     i.e. a full grace period elapsed past it. *)
  gate : Gp.gate;
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

let blocks ~target ~first:_ v = Protocol.Qsbr.blocks ~target v

let create ?(max_threads = 128) () =
  {
    gp = Atomic.make 1;
    driver =
      (* busy: only an offline slot (0) is known idle without the target;
         nesting: 1 = online behind the target; phase: the grace-period
         snapshot the reader is stuck at. *)
      Gp.create ~flavour:name ~max_threads ~busy:(-1) ~blocks
        ~nesting:(fun _ -> 1)
        ~phase:Fun.id;
    gate = Gp.gate ~covered:Protocol.Qsbr.covered;
  }

let register rcu =
  let slots = Gp.slots rcu.driver in
  let index = Registry.acquire slots in
  let slot = Registry.get slots index in
  Atomic.set slot 0;
  { rcu; index; slot; nesting = 0; entry_cookie = 0 }

let unregister th =
  if th.nesting <> 0 then
    invalid_arg "Qsbr.unregister: inside a read-side critical section";
  Atomic.set th.slot 0;
  Registry.release (Gp.slots th.rcu.driver) th.index

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
  let armed = Arm.word () in
  if armed land Arm.lockdep <> 0 then Lockdep.rcu_read_enter ~slot:th.index;
  if th.nesting = 0 then begin
    online th;
    Stats.incr Metrics.rcu_read_sections th.index;
    if armed land Arm.sanitizer <> 0 then
      th.entry_cookie <- Protocol.Qsbr.snap ~gp:(Atomic.get th.rcu.gp);
    if armed land Arm.trace <> 0 then Trace.record Read_enter th.index
  end
  else if armed land Arm.fault <> 0 && Fault.fires bug_quiescent_in_section
  then
    (* Seeded bug (c): a nested entry treated as a quiescent state — the
       slot jumps to the current counter, releasing any scan that was
       waiting for this (still running) section. *)
    Atomic.set th.slot (Atomic.get th.rcu.gp);
  th.nesting <- th.nesting + 1

let read_unlock th =
  (* Lockdep first (see Epoch_rcu.read_unlock). *)
  let armed = Arm.word () in
  if armed land Arm.lockdep <> 0 then Lockdep.rcu_read_exit ();
  if th.nesting <= 0 then
    invalid_arg "Qsbr.read_unlock: not inside a read-side critical section";
  th.nesting <- th.nesting - 1;
  if th.nesting = 0 then begin
    Atomic.set th.slot 0;
    if armed land Arm.trace <> 0 then Trace.record Read_exit th.index
  end

let read_gp_seq rcu = Protocol.Qsbr.snap ~gp:(Atomic.get rcu.gp)

let poll rcu snap =
  Protocol.Qsbr.covered ~gp_completed:(Gp.completed rcu.gate) ~snap

(* A driven scan advances the grace period and targets the result; the
   reader wait then lets each online thread catch up or go offline. *)
let claim rcu =
  let target = Atomic.fetch_and_add rcu.gp 2 + 2 in
  if Fault.enabled () then Fault.inject fault_wait;
  target

let drive rcu ~t0 =
  (* Snapshot before anything else: satisfied once a scan targeting at
     least [gp + 2] completes — such a scan advanced the counter, and then
     checked every slot, after this point. *)
  let snap = Protocol.Qsbr.snap ~gp:(Atomic.get rcu.gp) in
  Gp.coalesce rcu.driver rcu.gate ~t0 ~snap claim rcu

let synchronize rcu = Gp.synchronize rcu.driver drive rcu

let cond_synchronize rcu snap =
  (* Checked even on the elided path (see Epoch_rcu.cond_synchronize). *)
  if Lockdep.enabled () then Lockdep.check_sync ();
  if not (poll rcu snap) then synchronize rcu

let grace_periods rcu = Gp.grace_periods rcu.driver
let gp_cookie rcu = read_gp_seq rcu
let reader_slot th = th.index
let reader_cookie th = th.entry_cookie
