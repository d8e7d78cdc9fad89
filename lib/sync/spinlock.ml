module Lockdep = Repro_lockdep.Lockdep
module Arm = Repro_fault.Arm

type t = {
  state : bool Atomic.t;
  cls : Lockdep.cls; (* lockdep class, [Lockdep.generic] by default *)
  id : int; (* per-lock lockdep identity *)
}

let create ?(cls = Lockdep.generic) () =
  { state = Atomic.make false; cls; id = Lockdep.new_lock_id () }

let fault_acquire = Repro_fault.Fault.register "lock.spin.acquire"

let try_acquire_raw t =
  (not (Atomic.get t.state)) && Atomic.compare_and_set t.state false true

let try_acquire t =
  let ok = try_acquire_raw t in
  if ok && Lockdep.enabled () then
    Lockdep.trylock_acquired t.cls ~id:t.id ~order:(-1);
  ok

let acquire_ordered t order =
  (* One load of the arming word covers fault injection, lockdep and
     trace; each further step runs only when its bit is set. *)
  let armed = Arm.word () in
  if armed <> 0 then begin
    (* Fault injection: delay some arrivals before they attempt the lock,
       widening the contention window (ROBUSTNESS.md). *)
    if armed land Arm.fault <> 0 then Repro_fault.Fault.inject fault_acquire;
    (* Validated before the first spin: an inverted acquisition order is
       reported as a [Lockdep.Violation] instead of (sometimes)
       deadlocking right here. *)
    if armed land Arm.lockdep <> 0 then
      Lockdep.lock_acquired t.cls ~id:t.id ~order
  end;
  if try_acquire_raw t then begin
    Stats.incr Metrics.lock_acquires (Metrics.slot ());
    if armed land Arm.trace <> 0 then
      Trace.record Lock_acquire (Lockdep.cls_id t.cls)
  end
  else begin
    (* Contended path: time the spin so lock_wait_ns captures exactly the
       serialization the paper attributes to coarse locking. The clock
       reads stay out of the uncontended path. *)
    let t0 = Metrics.now_ns () in
    let b = Backoff.create () in
    while not (try_acquire_raw t) do
      Backoff.once b
    done;
    let dt = Metrics.now_ns () - t0 in
    let s = Metrics.slot () in
    Stats.incr Metrics.lock_acquires s;
    Stats.incr Metrics.lock_contended s;
    Stats.Timer.record Metrics.lock_wait_ns s dt;
    if armed land Arm.trace <> 0 then Trace.record Lock_contended dt
  end

let acquire t = acquire_ordered t (-1)

let release t =
  (* The held-stack check runs before the lock word changes: a double or
     foreign unlock raises with the lock state intact, so the actual
     holder is not silently robbed. *)
  if Lockdep.enabled () then Lockdep.lock_released t.cls ~id:t.id;
  if not (Atomic.exchange t.state false) then
    invalid_arg "Spinlock.release: lock was not held"

(* Cross-domain lock handoff (the call_rcu delete path in Citrus): the
   holder cedes lockdep ownership without opening the lock, and the
   adopting domain registers itself before the eventual [release]. The
   lock word never changes hands un-held, so no third party can sneak
   in between [transfer] and [adopt]. *)

let transfer t =
  if not (Atomic.get t.state) then
    invalid_arg "Spinlock.transfer: lock was not held";
  if Lockdep.enabled () then Lockdep.lock_released t.cls ~id:t.id

let adopt t ~order =
  if not (Atomic.get t.state) then
    invalid_arg "Spinlock.adopt: lock was not held";
  if Lockdep.enabled () then Lockdep.trylock_acquired t.cls ~id:t.id ~order

let is_locked t = Atomic.get t.state

let with_lock t f =
  acquire t;
  match f () with
  | v ->
      release t;
      v
  | exception e ->
      release t;
      raise e
