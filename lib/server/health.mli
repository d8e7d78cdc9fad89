(** Per-shard health state machine for serving-layer overload control.

    Three states, one atomic int, consulted on every write admission
    (see {!Shard_router} and SERVING.md):

    - [Healthy] — everything admitted.
    - [Degraded] — the shard is falling behind (queue depth crossed the
      high watermark, the staleness watchdog fired, or reclamation
      pressure latched — see {!observe_reclaim_pressure}).
      Fire-and-forget writes are shed first — they carry no waiter to
      slow down, and shedding them is what lets the queue drain — while
      completion-waited writes are still admitted (their waiters are the
      natural backpressure). Recovery is hysteretic: the shard heals only
      once depth falls to the low watermark {e and} the pressure latch is
      clear, so it does not flap at the boundary and cannot heal while
      reclamation debt is still accumulating.
    - [Failed] — terminal; entered by {!mark_failed} when the shard's
      supervisor exhausts its restart budget ({!Supervisor}). Reads keep
      working (the tree is intact); writes are rejected with
      [`Failed]. Counts [shards_failed] once.

    Every transition records a [Shard_state] trace event with
    [arg = shard * 4 + state] (0 healthy / 1 degraded / 2 failed). *)

type state = Healthy | Degraded | Failed

type t

val create : shard:int -> capacity:int -> t
(** Depth watermarks at 0.75 / 0.25 of the owning queue's [capacity];
    reclamation-pressure latch thresholds at 0.75 / 0.25 in
    {!Repro_citrus.Citrus.reclaim_pressure} units — fractions of the
    reclaimer's retired-bag watermark (pressure may transiently exceed
    1.0).
    @raise Invalid_argument unless [capacity > 0]. *)

val shard : t -> int
val state : t -> state

val state_name : state -> string
(** ["healthy" | "degraded" | "failed"] — the JSON-report spelling. *)

val high_watermark : t -> int
val low_watermark : t -> int

val observe_depth : t -> int -> unit
(** Feed the current queue depth (producers call this on the enqueue
    path; one atomic load plus a compare when nothing changes). *)

val note_stall : t -> unit
(** Degrade because the staleness watchdog fired — the updater is not
    draining regardless of depth. *)

val observe_reclaim_pressure : t -> float -> unit
(** Feed the shard's reclamation pressure (the updater polls
    [reclaim_pressure] each drain cycle — see {!Shard_router}). At or
    above 0.75 the latch sets and a healthy shard degrades:
    reclamation debt is overload even with an empty queue, since every
    applied write retires memory nothing is freeing. While latched,
    {!observe_depth} cannot heal the shard — shedding empties the queue
    quickly, but the retired backlog shrinks only when grace periods
    complete. At or below 0.25 the latch clears and recovery
    returns to depth-driven hysteresis. *)

val pressure_latched : t -> bool
(** The reclamation-pressure latch is set (monitoring). *)

val mark_failed : t -> bool
(** Terminal. [true] for the caller that performed the transition (it
    should purge the queue); [false] if already failed. *)
