(** Low-overhead ring-buffer event trace for the synchronization layer.

    One global ring shared by every domain records the serialization events
    that explain throughput: RCU read-section boundaries, grace-period
    start/end, lock contention, traversal restarts, reclaim batches.
    Recording claims a slot with a single [fetch_and_add] — it never blocks,
    never loops, and allocates only a bounded amount per event — so it is
    safe to call from the hottest read paths. When the ring is full the
    oldest events are overwritten; memory use is fixed at configuration
    time.

    Tracing is {e off} by default: it records while the trace bit of the
    arming word is set ([Repro_fault.Arm.with_ Arm.trace]); the disabled
    cost is one load and a branch. [dump] is intended to run
    after the traced workload has quiesced — concurrent dumping is safe but
    may observe torn events (see the design notes in OBSERVABILITY.md). *)

type kind =
  | Read_enter  (** outermost RCU [read_lock]; arg = reader slot index *)
  | Read_exit  (** outermost RCU [read_unlock]; arg = reader slot index *)
  | Sync_start  (** [synchronize] invoked; arg = calling domain's id, so
                    traces from concurrent synchronizers are
                    distinguishable *)
  | Sync_end  (** [synchronize] returned; arg = grace-period duration (ns) *)
  | Lock_acquire
      (** uncontended lock acquisition; arg = the lock's
          [Repro_lockdep.Lockdep] class id (0 = unclassified), so traces
          distinguish tree-node locks from the GP lock *)
  | Lock_contended  (** lock acquired after spinning; arg = wait (ns) *)
  | Restart  (** optimistic traversal restarted after failed validation *)
  | Stall
      (** grace-period stall report emitted (see [Repro_rcu.Stall]);
          arg = blocking reader slot index *)
  | Sync_coalesced
      (** [synchronize] returned by piggybacking on a concurrent
          synchronizer's grace period instead of driving its own;
          arg = calling domain's id. Always followed by the matching
          [Sync_end]. *)
  | Sanitize_violation
      (** reclamation-sanitizer violation detected (logical
          use-after-free or double-free, see [Repro_sanitizer.Sanitizer]);
          arg = offending shadow-record id *)
  | Lockdep_violation
      (** locking-protocol violation detected by the lockdep validator
          (order inversion, dependency cycle, release-not-held, RCU
          context rule; see [Repro_lockdep.Lockdep]); arg = offending
          lockdep class id *)
  | Mod_enqueue
      (** operation accepted into a per-shard modification queue of the
          serving layer ([Repro_server.Mod_queue]); arg = queue (shard)
          id. Drops (queue full) are counted in the [mod_drops] metric
          but not traced — a saturated queue would flood the ring. *)
  | Mod_drain
      (** one drain batch spliced out of a modification queue by its
          updater domain; arg = batch size (operations). See
          SERVING.md. *)
  | Mod_stall
      (** a modification queue's staleness watchdog fired: the oldest
          queued write has waited past the configured threshold with no
          drain in between (the updater is wedged or grace-period-bound);
          arg = queue (shard) id. One event per threshold window, like
          [Stall]. *)
  | Updater_crash
      (** a shard's updater domain died with an exception and was caught
          by its supervisor ([Repro_server.Supervisor]); arg = shard id *)
  | Updater_restart
      (** the supervisor spawned a replacement updater domain that
          adopted the crashed one's backlog; arg = shard id *)
  | Shard_state
      (** a shard's health state changed ([Repro_server.Health]);
          arg = [shard_id * 4 + state] with state 0 = healthy,
          1 = degraded, 2 = failed *)
  | Reclaim
      (** the background reclaimer domain freed one batch of retired
          pointers after their grace periods elapsed
          ([Repro_rcu.Reclaimer]); arg = batch size (callbacks run) *)
  | Breaker_state
      (** a shard's circuit breaker changed state
          ([Repro_server.Breaker]); arg = [shard_id * 4 + state] with
          state 0 = closed, 1 = open, 2 = half-open — same packing as
          [Shard_state] *)

val kind_to_string : kind -> string

type event = {
  t_ns : int;  (** monotonic timestamp, nanoseconds *)
  domain : int;  (** recording domain's id *)
  kind : kind;
  arg : int;  (** kind-specific payload, see {!kind} *)
}

val enabled : unit -> bool
(** The trace bit of [Repro_fault.Arm]'s word. *)

val configure : capacity:int -> unit
(** Replace the ring with a fresh one of at least [capacity] slots (rounded
    up to a power of two; default 65 536). Not safe concurrently with
    recorders — configure before starting the workload. *)

val clear : unit -> unit
(** Drop all retained events (capacity unchanged). *)

val record : kind -> int -> unit
(** [record kind arg] appends one event if tracing is enabled; otherwise a
    single load of the arming word. Wait-free. *)

val capacity : unit -> int

val recorded : unit -> int
(** Total events ever recorded since the last [clear]/[configure] —
    exceeds [length] once the ring has wrapped (the difference is the
    number of overwritten events). *)

val length : unit -> int
(** Number of events currently retained (≤ capacity). *)

val dump : unit -> event list
(** Retained events, oldest first. Run after the workload quiesces. *)

val now_ns : unit -> int
(** The monotonic clock used for event timestamps. *)
