module Registry = Repro_sync.Registry
module Spinlock = Repro_sync.Spinlock
module Stats = Repro_sync.Stats
module Metrics = Repro_sync.Metrics
module Trace = Repro_sync.Trace
module Fault = Repro_fault.Fault
module San = Repro_sanitizer.Sanitizer
module Lockdep = Repro_lockdep.Lockdep

(* Per-thread word layout (as in liburcu): low 16 bits = nesting count,
   bit 16 = phase. A thread is a quiescent reader when its nesting bits are
   zero; it blocks a grace period when it is nested *and* its phase bit
   differs from the current global phase. The encodings themselves live
   in Protocol.Urcu, shared with the model checker (lib/modelcheck). *)
let nest_mask = Protocol.Urcu.nest_mask
let phase_bit = Protocol.Urcu.phase_bit

type t = {
  gp_ctr : int Atomic.t; (* phase bit only; low bits unused globally *)
  driver : Gp.t;
  gp_lock : Spinlock.t;
  (* Grace-period sequence, Linux gp_seq encoding in one word:
     [(completed lsl 1) lor in_progress]. Only the gp_lock holder writes
     it; transitions are idle(k) -> in-progress(k) -> idle(k+1), so the
     word is monotonic and [gp_seq lsr 1] is the completed count. *)
  gp_seq : int Atomic.t;
}

type thread = {
  rcu : t;
  index : int;
  slot : int Atomic.t;
  (* gp_cookie at the last outermost read_lock; written only while the
     reclamation sanitizer is armed. *)
  mutable entry_cookie : int;
}

type gp_state = int
(* A completed-count target: satisfied once [gp_seq lsr 1 >= snap]. *)

let name = "urcu"

(* Fault point: fires after the global grace-period lock is taken and
   before the first phase flip — a delay here extends every queued
   updater's wait, the exact serialization Figure 8 measures. *)
let fault_pre_flip = Fault.register "urcu.sync.pre_flip"

(* Fault point: fires in the outermost read_lock between loading the
   global phase and publishing it in the slot — the stale-phase window
   the two-flip handshake exists for. Stretching it (and crippling the
   handshake with [bug_single_flip]) is how the mutation suite proves
   the reclamation sanitizer catches a single-flip urcu. *)
let fault_read_enter = Fault.register "urcu.read.enter"

(* Seeded bug (ROBUSTNESS.md, "Mutation suite"): when it fires,
   [synchronize] performs only ONE phase flip + reader wait instead of
   liburcu's two — the classic broken-urcu bug. *)
let bug_single_flip = Fault.register "bug.urcu.single_flip"

(* One lockdep class for every urcu instance's grace-period lock: its
   role in the dependency graph (GP waits serialize behind it, tree-node
   locks are routinely held across it) is the same whichever tree owns
   the instance. *)
let gp_lock_cls = Lockdep.new_class Lockdep.Gp "urcu/gp_lock"

(* A reader blocks the current phase if it is inside a critical section it
   entered before the latest phase flip. *)
let blocks ~target ~first:_ v = Protocol.Urcu.ongoing ~gp_phase:target v

let create ?(max_threads = 128) () =
  {
    gp_ctr = Atomic.make 0;
    driver =
      (* busy: a reader with nesting 0 is outside any section. *)
      Gp.create ~flavour:name ~max_threads ~busy:nest_mask ~blocks
        ~nesting:Protocol.Urcu.nesting
        ~phase:(fun v -> (v land phase_bit) lsr 16);
    gp_lock = Spinlock.create ~cls:gp_lock_cls ();
    gp_seq = Atomic.make 0;
  }

let register rcu =
  let slots = Gp.slots rcu.driver in
  let index = Registry.acquire slots in
  let slot = Registry.get slots index in
  Atomic.set slot 0;
  { rcu; index; slot; entry_cookie = 0 }

let read_depth th = Atomic.get th.slot land nest_mask

let unregister th =
  if read_depth th <> 0 then
    invalid_arg "Urcu.unregister: inside a read-side critical section";
  Registry.release (Gp.slots th.rcu.driver) th.index

(* Defined before [read_lock] so the sanitizer entry cookie can reuse it.
   A snapshot is satisfied once the completed count reaches it. If a grace
   period is in progress at snapshot time ([in_progress] set), it may have
   flipped the phase before our updates were published, so the snapshot
   must demand the *next* full grace period: completed + 2 in-progress vs
   completed + 1 idle — the same "one extra if started" rule as Linux's
   get_state_synchronize_rcu. *)
let read_gp_seq rcu = Protocol.Urcu.snap ~gp_seq:(Atomic.get rcu.gp_seq)
let poll rcu snap = Protocol.Urcu.covered ~gp_seq:(Atomic.get rcu.gp_seq) ~snap

let read_lock th =
  if Lockdep.enabled () then Lockdep.rcu_read_enter ~slot:th.index;
  let v = Atomic.get th.slot in
  if v land nest_mask = 0 then begin
    (* Outermost: adopt the current global phase with nesting 1. *)
    let phase = Atomic.get th.rcu.gp_ctr in
    if Fault.enabled () then Fault.inject fault_read_enter;
    Atomic.set th.slot (Protocol.Urcu.enter_word ~phase);
    if San.enabled () then th.entry_cookie <- read_gp_seq th.rcu;
    if Metrics.enabled () then
      Stats.incr Metrics.rcu_read_sections th.index;
    Trace.record Read_enter th.index
  end
  else Atomic.set th.slot (v + 1)

let read_unlock th =
  (* Lockdep first (see Epoch_rcu.read_unlock). *)
  if Lockdep.enabled () then Lockdep.rcu_read_exit ();
  let v = Atomic.get th.slot in
  if v land nest_mask = 0 then
    invalid_arg "Urcu.read_unlock: not inside a read-side critical section";
  Atomic.set th.slot (v - 1);
  if (v - 1) land nest_mask = 0 then Trace.record Read_exit th.index

let wait_for_readers rcu t0 =
  Gp.wait_for_readers rcu.driver ~t0 ~target:(Atomic.get rcu.gp_ctr)

(* The grace-period timer (the frame's [t0]) starts before the gp_lock
   acquisition: queueing on that global lock is precisely the updater
   serialization Figure 8 measures, so it counts as grace-period time. The
   lock's own wait also lands in lock_wait_ns via the instrumented
   spinlock. The frame's lockdep check runs before queueing on the
   gp_lock, which a reader could block forever. *)
let drive rcu ~t0 =
  let snap = read_gp_seq rcu in
  Spinlock.acquire rcu.gp_lock;
  (* Re-check after the lock queue: every grace period that completed while
     we waited was driven under this lock, after our snapshot — if one of
     them covers us we piggyback on it instead of flipping again. This is
     what turns N queued synchronizers into O(1) grace periods instead of
     N back-to-back ones. *)
  let coalesced = Gp.coalescing () && poll rcu snap in
  if not coalesced then begin
    if Fault.enabled () then Fault.inject fault_pre_flip;
    let completed = Protocol.Urcu.seq_completed (Atomic.get rcu.gp_seq) in
    Atomic.set rcu.gp_seq (Protocol.Urcu.seq_in_progress ~completed);
    (* Two phase flips, as in liburcu: a single flip cannot distinguish a
       reader that started just before the flip from one that started just
       after, so the grace period performs the handshake twice. *)
    (try
       Atomic.set rcu.gp_ctr (Atomic.get rcu.gp_ctr lxor phase_bit);
       wait_for_readers rcu t0;
       if not (Fault.enabled () && Fault.fires bug_single_flip) then begin
         Atomic.set rcu.gp_ctr (Atomic.get rcu.gp_ctr lxor phase_bit);
         wait_for_readers rcu t0
       end
     with e ->
       (* Stall.Stalled in fail mode: clear the in-progress bit (the grace
          period did not complete; leaving the bit set would make every
          later snapshot demand one extra grace period forever) and release
          the global lock so other updaters are not wedged behind an
          abandoned grace period. The phase flips already performed are
          harmless — the next synchronize flips again and waits properly. *)
       Atomic.set rcu.gp_seq (Protocol.Urcu.seq_idle ~completed);
       Spinlock.release rcu.gp_lock;
       raise e);
    Atomic.set rcu.gp_seq (Protocol.Urcu.seq_idle ~completed:(completed + 1))
  end;
  Spinlock.release rcu.gp_lock;
  coalesced

let synchronize rcu = Gp.synchronize rcu.driver drive rcu

let cond_synchronize rcu snap =
  (* Checked even on the elided path (see Epoch_rcu.cond_synchronize). *)
  if Lockdep.enabled () then Lockdep.check_sync ();
  if not (poll rcu snap) then synchronize rcu

let grace_periods rcu = Gp.grace_periods rcu.driver
let gp_cookie rcu = read_gp_seq rcu
let reader_slot th = th.index
let reader_cookie th = th.entry_cookie
