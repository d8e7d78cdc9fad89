(** Process-global serialization metrics.

    One registry of striped counters and duration timers, shared by every
    subsystem that serializes work: the RCU flavours record read sections
    and grace-period durations, the locks record acquisitions / contention /
    wait times, Citrus records traversal restarts, the reclaimer records
    retirements and batches. Living at the bottom of the dependency stack, the
    registry needs no plumbing and one {!snapshot} captures every
    subsystem at once — the substrate of the benchmark JSON reports.

    Recording is unconditional and striped by domain id: one uncontended
    [fetch_and_add] per event.
    Counter reads are racy but monotone. See OBSERVABILITY.md for the
    metric catalogue and measured overhead. *)

val enabled : unit -> bool
(** Always [true]: metrics have no off switch. Kept for report headers
    that print it; code under lib/ records without asking. *)

val slot : unit -> int
(** Stripe index for the calling domain (its domain id). *)

val now_ns : unit -> int
(** Monotonic nanosecond clock (shared with {!Trace}). *)

(** {2 Well-known metrics}

    Exposed so instrumented subsystems can record and tests can read
    individual metrics; most consumers want {!snapshot}. *)

val rcu_read_sections : Stats.t
(** Outermost RCU read-side critical sections entered. *)

val rcu_stalls : Stats.t
(** Grace-period stall reports emitted by the watchdog
    ([Repro_rcu.Stall]); 0 unless a reader blocked a grace period past the
    configured threshold. *)

val grace_period_ns : Stats.Timer.t
(** One sample per completed [synchronize] call, valued at its duration —
    the count is the number of grace periods paid, the mean their cost. *)

val sync_coalesced : Stats.t
(** [synchronize] calls that returned by piggybacking on a grace period
    driven by a concurrent synchronizer instead of driving their own
    (all RCU flavours). [sync_coalesced / grace_periods] is the fraction
    of grace-period waits the coalescing machinery elided. *)

val lock_acquires : Stats.t
(** Successful lock acquisitions (spinlock). *)

val lock_contended : Stats.t
(** Acquisitions that found the lock held and had to spin. *)

val lock_wait_ns : Stats.Timer.t
(** One sample per contended acquisition, valued at the spin time. *)

val restarts : Stats.t
(** Optimistic traversals restarted after failed validation (Citrus). *)

val call_rcu_enqueued : Stats.t
(** Retired pointers enqueued into a reclaimer bag
    ([Repro_rcu.Reclaimer.Make.call_rcu]) instead of being freed inline
    after a blocking [synchronize]. *)

val reclaim_batches : Stats.t
(** Batches of retired pointers freed after their grace-period cookies
    elapsed: passes of a background reclaimer domain, or inline drains
    of a producer's own bag (each pays at most one grace period). *)

val reclaim_backlog : Stats.Timer.t
(** One sample per reclaim batch, valued at the backlog depth (retired
    pointers still awaiting a grace period) observed at batch start —
    a depth sampler, not a timer, so snapshots report mean and peak
    backlog. *)

val sanitizer_checks : Stats.t
(** Shadow-record lookups performed by the reclamation sanitizer
    ([Repro_sanitizer.Sanitizer]); 0 unless the sanitizer is armed. *)

val sanitizer_violations : Stats.t
(** Reclamation-sanitizer violations detected (logical use-after-free,
    double-free); 0 on a correct implementation even when armed. *)

val mod_enqueues : Stats.t
(** Write operations accepted into a per-shard modification queue of the
    serving layer ([Repro_server.Mod_queue]; see SERVING.md). *)

val mod_drops : Stats.t
(** Enqueue attempts rejected because the modification queue was full —
    the serving layer's backpressure signal. *)

val mod_drained : Stats.t
(** Queued write operations applied to a shard by its updater domain. *)

val mod_queue_wait_ns : Stats.Timer.t
(** One sample per drained operation, valued at its enqueue-to-drain
    queueing delay — the asynchrony cost a reader may observe as staleness
    (see SERVING.md, "Consistency"). *)

val mod_queue_stalls : Stats.t
(** Modification-queue staleness-watchdog reports: the oldest queued
    write sat past the configured threshold with no drain in between —
    the updater is wedged, crashed past its restart budget, or
    grace-period-bound. 0 unless the watchdog is armed
    ([Repro_server.Mod_queue.set_stall_threshold_ns]). *)

val updater_crashes : Stats.t
(** Updater-domain deaths caught by a shard supervisor
    ([Repro_server.Supervisor]). *)

val updater_restarts : Stats.t
(** Replacement updater domains spawned after a crash (=< crashes; the
    difference is crashes that exhausted the restart budget). *)

val updater_restart_ns : Stats.Timer.t
(** One sample per restart, valued at crash-to-replacement-running time —
    the recovery latency the chaos harness bounds at p99. *)

val shards_failed : Stats.t
(** Shards marked [Failed] after exhausting their restart budget; their
    reads keep working, their writes are rejected. *)

val writes_shed : Stats.t
(** Fire-and-forget writes rejected by overload control while the owning
    shard was [Degraded] (completion-waited writes are still admitted). *)

val writes_lost : Stats.t
(** Accepted writes discarded because their shard failed past its restart
    budget or shutdown was forced past the drain deadline — the only two
    paths that may drop an accepted write, both loudly accounted. *)

val writes_expired : Stats.t
(** Queued writes whose end-to-end deadline elapsed before the updater
    applied them; the drain completes them with [Expired] instead of
    burning updater time on abandoned work (see SERVING.md,
    "Deadline propagation"). Expiry is not loss: the client was told. *)

val breaker_open : Stats.t
(** Per-shard circuit-breaker trips (Closed/Half_open → Open transitions,
    [Repro_server.Breaker]). Each trip starts a jittered open interval
    during which the shard's writes are rejected without touching the
    queue. *)

val breaker_rejects : Stats.t
(** Write admissions refused by an open circuit breaker — cheap typed
    rejects that never reach the modification queue. *)

val reclaim_pressure : Stats.Timer.t
(** One sample per admission-path pressure poll, valued at the observed
    reclamation backlog pressure in parts per thousand of the watermark
    (1000 = retired backlog at the bag watermark) — a gauge through the
    Timer machinery like {!reclaim_backlog}, so snapshots report mean
    and peak pressure. *)

(** The [lockdep_checks] / [lockdep_violations] rows of {!snapshot} are
    read directly from [Repro_lockdep.Lockdep.checks]/[violations]
    (lockdep sits below this module and keeps its own counters); both
    are 0 unless lockdep is armed, and [lockdep_violations] stays 0 on
    code that follows the locking protocol. *)

(** {2 Snapshot} *)

val snapshot : unit -> (string * float) list
(** Current value of every metric under its catalogue name (see
    OBSERVABILITY.md): raw counts plus derived [\_mean_ns] / [\_total_ns] /
    [\_max_ns] values for the timers. *)

val reset : unit -> unit
(** Zero every metric (typically at the start of a measured interval). *)
