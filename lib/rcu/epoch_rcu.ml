module Registry = Repro_sync.Registry
module Stats = Repro_sync.Stats
module Metrics = Repro_sync.Metrics
module Trace = Repro_sync.Trace
module Fault = Repro_fault.Fault
module Lockdep = Repro_lockdep.Lockdep
module Arm = Repro_fault.Arm

type slot = int Atomic.t
(* Encoding: [count lsl 1) lor flag]. Only the owning thread writes its
   slot; [synchronize] only reads. *)

type t = {
  driver : Gp.t;
  (* Grace-period sequence (Linux gp_seq, split into two counters because
     scans here are lock-free and concurrent): [gp_started] numbers scans
     as they begin, and the gate's completed number is the highest scan
     whose full slot scan has finished. A scan numbered [n] took every
     slot snapshot after the [n]th increment of [gp_started], so a
     completed number [>= s] proves a full grace period elapsed after any
     moment at which [gp_started] was still [< s]. *)
  gp_started : int Atomic.t;
  gate : Gp.gate;
}

type thread = {
  rcu : t;
  index : int;
  slot : slot;
  mutable nesting : int;
  (* gp_cookie at the last outermost read_lock; written only while the
     reclamation sanitizer is armed. *)
  mutable entry_cookie : int;
}

type gp_state = int
(* The scan number that must complete: [read_gp_seq] snapshot s satisfied
   once [gp_completed >= s]. *)

let name = "epoch-rcu"

(* Fault point: fires at the start of the slot scan — delaying one
   synchronizer here lets later read sections begin and finish under it,
   exercising the ABA-safety of the count-and-flag encoding. *)
let fault_advance = Fault.register "epoch.advance"

(* A slot blocks while the reader stays in the section it was in when the
   scan first read the slot: flag set and word unchanged. The count only
   grows, so "the word changed" is ABA-safe. *)
let blocks ~target:_ ~first v =
  Protocol.Epoch.slot_in_section first && v = first

let create ?(max_threads = 128) () =
  {
    driver =
      (* busy: the in-section flag; nesting: the same flag; phase: the
         section count the reader has been stuck inside. *)
      Gp.create ~flavour:name ~max_threads ~busy:1 ~blocks
        ~nesting:(fun v -> v land 1)
        ~phase:Protocol.Epoch.slot_count;
    gp_started = Atomic.make 0;
    gate = Gp.gate ~covered:Protocol.Epoch.covered;
  }

let register rcu =
  let slots = Gp.slots rcu.driver in
  let index = Registry.acquire slots in
  let slot = Registry.get slots index in
  Atomic.set slot (Protocol.Epoch.slot_exit (Atomic.get slot));
  { rcu; index; slot; nesting = 0; entry_cookie = 0 }

let unregister th =
  if th.nesting <> 0 then
    invalid_arg "Epoch_rcu.unregister: inside a read-side critical section";
  Registry.release (Gp.slots th.rcu.driver) th.index

(* Each side loads the arming word once: with every debug layer off, a
   section pays the slot stores, the read-section count and one load per
   side. *)
let read_lock th =
  let armed = Arm.word () in
  if armed land Arm.lockdep <> 0 then Lockdep.rcu_read_enter ~slot:th.index;
  if th.nesting = 0 then begin
    (* One SC store publishes both the new count and the flag
       (Protocol.Epoch.slot_enter). *)
    Atomic.set th.slot (Protocol.Epoch.slot_enter (Atomic.get th.slot));
    Stats.incr Metrics.rcu_read_sections th.index;
    if armed land Arm.sanitizer <> 0 then
      th.entry_cookie <-
        Protocol.Epoch.snap ~gp_started:(Atomic.get th.rcu.gp_started);
    if armed land Arm.trace <> 0 then Trace.record Read_enter th.index
  end;
  th.nesting <- th.nesting + 1

let read_unlock th =
  (* The lockdep check runs first: armed, an unbalanced unlock is a
     structured [Lockdep.Violation]; disarmed, the historical
     [Invalid_argument] below still fires. *)
  let armed = Arm.word () in
  if armed land Arm.lockdep <> 0 then Lockdep.rcu_read_exit ();
  if th.nesting <= 0 then
    invalid_arg "Epoch_rcu.read_unlock: not inside a read-side critical section";
  th.nesting <- th.nesting - 1;
  if th.nesting = 0 then begin
    Atomic.set th.slot (Protocol.Epoch.slot_exit (Atomic.get th.slot));
    if armed land Arm.trace <> 0 then Trace.record Read_exit th.index
  end

let read_depth th = th.nesting

let read_gp_seq rcu =
  Protocol.Epoch.snap ~gp_started:(Atomic.get rcu.gp_started)

let poll rcu snap =
  Protocol.Epoch.covered ~gp_completed:(Gp.completed rcu.gate) ~snap

(* A driven scan claims the next scan number. *)
let claim rcu = Atomic.fetch_and_add rcu.gp_started 1 + 1

let drive rcu ~t0 =
  if Fault.enabled () then Fault.inject fault_advance;
  (* Snapshot before anything else: this call is satisfied exactly when a
     scan numbered >= [snap] completes, because such a scan took all its
     slot snapshots after this point and therefore waited out every reader
     already in a critical section here. *)
  let snap = Protocol.Epoch.snap ~gp_started:(Atomic.get rcu.gp_started) in
  Gp.coalesce rcu.driver rcu.gate ~t0 ~snap claim rcu

let synchronize rcu = Gp.synchronize rcu.driver drive rcu

let cond_synchronize rcu snap =
  (* Checked even on the elided path: the call is *allowed* to wait, so
     making it legal only when the grace period happens to have elapsed
     would hide the bug until the unlucky schedule. *)
  if Lockdep.enabled () then Lockdep.check_sync ();
  if not (poll rcu snap) then synchronize rcu

let grace_periods rcu = Gp.grace_periods rcu.driver
let gp_cookie rcu = read_gp_seq rcu
let reader_slot th = th.index
let reader_cookie th = th.entry_cookie
