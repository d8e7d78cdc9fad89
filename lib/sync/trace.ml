(* A global, fixed-capacity event trace. Recording must be safe on the
   hottest paths in the repository (RCU read sections, spinlock slow paths),
   so the design is:

   - one power-of-two ring shared by all domains, claimed by a single
     [fetch_and_add] on the cursor — never blocks, never retries;
   - event fields live in parallel int arrays (no per-event record
     allocation; the only allocation per event is the boxed int64 returned
     by the monotonic clock, which is bounded and minor);
   - the ring silently overwrites the oldest events once full — total
     memory is fixed at configuration time;
   - off by default: the trace bit of the arming word (Repro_fault.Arm)
     is checked first, so the disabled cost is one load and a branch.

   Field reads in [dump] race with writers: a slot can hold fields from two
   different events while a writer is mid-store. This is accepted (the
   trace is diagnostic, not a correctness log) and disappears when dumping
   after the traced workload quiesces, which is how every caller in the
   repo uses it. *)

type kind =
  | Read_enter
  | Read_exit
  | Sync_start
  | Sync_end
  | Lock_acquire
  | Lock_contended
  | Restart
  | Stall
  | Sync_coalesced
  | Sanitize_violation
  | Lockdep_violation
  | Mod_enqueue
  | Mod_drain
  | Mod_stall
  | Updater_crash
  | Updater_restart
  | Shard_state
  | Reclaim
  | Breaker_state

let kind_to_string = function
  | Read_enter -> "read_enter"
  | Read_exit -> "read_exit"
  | Sync_start -> "sync_start"
  | Sync_end -> "sync_end"
  | Lock_acquire -> "lock_acquire"
  | Lock_contended -> "lock_contended"
  | Restart -> "restart"
  | Stall -> "stall"
  | Sync_coalesced -> "sync_coalesced"
  | Sanitize_violation -> "sanitize_violation"
  | Lockdep_violation -> "lockdep_violation"
  | Mod_enqueue -> "mod_enqueue"
  | Mod_drain -> "mod_drain"
  | Mod_stall -> "mod_stall"
  | Updater_crash -> "updater_crash"
  | Updater_restart -> "updater_restart"
  | Shard_state -> "shard_state"
  | Reclaim -> "reclaim"
  | Breaker_state -> "breaker_state"

let kind_index = function
  | Read_enter -> 0
  | Read_exit -> 1
  | Sync_start -> 2
  | Sync_end -> 3
  | Lock_acquire -> 4
  | Lock_contended -> 5
  | Restart -> 6
  | Stall -> 7
  | Sync_coalesced -> 8
  | Sanitize_violation -> 9
  | Lockdep_violation -> 10
  | Mod_enqueue -> 11
  | Mod_drain -> 12
  | Mod_stall -> 13
  | Updater_crash -> 14
  | Updater_restart -> 15
  | Shard_state -> 16
  | Reclaim -> 17
  | Breaker_state -> 18

let kind_of_index = function
  | 0 -> Read_enter
  | 1 -> Read_exit
  | 2 -> Sync_start
  | 3 -> Sync_end
  | 4 -> Lock_acquire
  | 5 -> Lock_contended
  | 6 -> Restart
  | 8 -> Sync_coalesced
  | 9 -> Sanitize_violation
  | 10 -> Lockdep_violation
  | 11 -> Mod_enqueue
  | 12 -> Mod_drain
  | 13 -> Mod_stall
  | 14 -> Updater_crash
  | 15 -> Updater_restart
  | 16 -> Shard_state
  | 17 -> Reclaim
  | 18 -> Breaker_state
  | _ -> Stall

type event = {
  t_ns : int;  (* monotonic timestamp *)
  domain : int;
  kind : kind;
  arg : int;
}

type ring = {
  mask : int;
  cursor : int Atomic.t; (* total events ever claimed; slot = cursor land mask *)
  times : int array;
  domains : int array;
  kinds : int array;
  args : int array;
}

let make_ring capacity =
  (* Round up to a power of two so the slot index is a mask, not a mod. *)
  let cap =
    let rec up c = if c >= capacity then c else up (c * 2) in
    up 1
  in
  {
    mask = cap - 1;
    cursor = Atomic.make 0;
    times = Array.make cap 0;
    domains = Array.make cap 0;
    kinds = Array.make cap 0;
    args = Array.make cap 0;
  }

let default_capacity = 1 lsl 16

let ring = ref (make_ring default_capacity)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let enabled () = Repro_fault.Arm.word () land Repro_fault.Arm.trace <> 0

let configure ~capacity =
  if capacity <= 0 then invalid_arg "Trace.configure: capacity must be positive";
  ring := make_ring capacity

let clear () = Atomic.set !ring.cursor 0

let capacity () = !ring.mask + 1

let recorded () = Atomic.get !ring.cursor

let record kind arg =
  if enabled () then begin
    let r = !ring in
    let i = Atomic.fetch_and_add r.cursor 1 land r.mask in
    r.times.(i) <- now_ns ();
    r.domains.(i) <- (Domain.self () :> int);
    r.kinds.(i) <- kind_index kind;
    r.args.(i) <- arg
  end

let length () =
  let r = !ring in
  min (Atomic.get r.cursor) (r.mask + 1)

(* Lockdep sits below this module in the dependency stack, so it cannot
   record its own violations; instead it exposes a hook, installed here
   at module initialization (top-level effects of linked modules run at
   program start, before any workload). The hook argument is the
   offending lockdep class id, matching the [Lock_acquire] argument. *)
let () =
  Repro_lockdep.Lockdep.set_violation_hook (fun cls_id ->
      record Lockdep_violation cls_id)

let dump () =
  let r = !ring in
  let total = Atomic.get r.cursor in
  let n = min total (r.mask + 1) in
  (* Oldest retained event first: when the ring has wrapped, that is the
     slot the cursor will claim next. *)
  let first = if total <= r.mask + 1 then 0 else total - (r.mask + 1) in
  List.init n (fun j ->
      let i = (first + j) land r.mask in
      {
        t_ns = r.times.(i);
        domain = r.domains.(i);
        kind = kind_of_index r.kinds.(i);
        arg = r.args.(i);
      })
