(** call_rcu: deferred reclamation over epoch-tagged retired bags — the
    one retire path of the repository.

    {!Make.call_rcu} appends a callback and its [read_gp_seq] cookie to
    the calling domain's bag — two atomic stores — and the callback runs
    only after a grace period covering the cookie. {!Make.create} chooses
    who drains the bags: a background reclaimer domain (default), which
    polls [poll]/[cond_synchronize] and frees in batches so updaters
    never wait (DESIGN.md, "call_rcu and retired bags"); or, with
    [~background:false], each producer itself, one grace period per
    batch and no domain spawned.

    A background bag is bounded by a watermark: a producer that finds it
    full spins briefly (counted in {!Make.backpressure_waits}) and then
    frees inline rather than grow without bound. The background domain
    is supervised like a serving-layer updater: a crash — injectable at
    the "rcu.reclaim.crash" fault point — is caught, counted, and the
    restarted incarnation resumes from the gathered-but-unfreed
    remainder. Past the restart budget producers fall back to inline
    frees and {!Make.stop} sweeps the leftovers. *)

(** {1 Process-global configuration}

    The [Gp.set_coalescing] idiom: one switch consulted at
    structure-creation time ([Repro_citrus.Citrus.create],
    [Repro_dict]), so the same binary can A/B inline-synchronize deletes
    against call_rcu deletes. Off by default. *)

val set_call_rcu : bool -> unit
(** Globally select the call_rcu delete/retire path for structures
    created after the call. Flip only between runs, never while trees
    built under the other setting are still live. Also armed by the
    environment ([REPRO_CALL_RCU=1]), mirroring [REPRO_SANITIZE] /
    [REPRO_LOCKDEP]: any binary can route reclamation through a
    reclaimer domain without code changes. *)

val call_rcu_enabled : unit -> bool

val set_batch : int -> unit
(** Default reclaim batch size (callbacks freed per pass) for reclaimers
    created without an explicit [?batch]. Raises [Invalid_argument] if
    not positive. *)

val batch : unit -> int

val set_watermark : int -> unit
(** Default per-bag capacity (retired pointers a producer may have in
    flight before backpressure engages) for reclaimers created without
    an explicit [?watermark]. Raises [Invalid_argument] if not
    positive. *)

val watermark : unit -> int

val set_gp_stall_ns : int -> unit
(** How long one grace-period wait may block before {!Make.pressure}
    reports the instance saturated (default 10 ms). A healthy grace
    period completes in microseconds to low milliseconds; a wait past
    this threshold means readers have stopped completing — a parked or
    wedged reader — which bag depth alone cannot show (the blocked
    unlink continuation holds node locks, updaters convoy on them, and
    retirement stops while the bags sit nearly empty). Raises
    [Invalid_argument] if not positive. *)

val gp_stall_ns : unit -> int

module Make (R : Rcu_intf.S) : sig
  type t
  (** One reclaimer: the retired bags, plus the background domain that
      drains them unless created inline, bound to one [R.t] RCU
      instance. *)

  type producer
  (** A single-producer retired bag. One per registered thread
      (Citrus allocates one per handle); never share one across
      domains. *)

  val create :
    ?batch:int -> ?watermark:int -> ?max_restarts:int -> ?background:bool ->
    R.t -> t
  (** A reclaimer over [rcu]. With [background] (default true) it spawns
      the reclaimer domain, which the caller owns and must {!stop};
      [batch] is then the number of callbacks freed per pass,
      [watermark] the per-bag capacity, and [max_restarts] (default 8)
      bounds crash-restarts before the reclaimer declares itself dead and
      producers fall back to inline frees. With [~background:false] no
      domain is spawned: each producer drains its own bag once it holds
      [batch] entries (see {!call_rcu}), and [watermark]/[max_restarts]
      are unused. [batch] and [watermark] default to the process-global
      {!val-batch}/{!val-watermark}. *)

  val new_producer : t -> producer
  (** Register a retired bag with the reclaimer. Bags are never removed;
      an abandoned bag simply stays empty. *)

  val call_rcu : t -> producer -> ?shadow:Repro_sanitizer.Sanitizer.record
    -> (unit -> unit) -> unit
  (** [call_rcu t p f] schedules [f] to run after a grace period covering
      every read-side critical section in progress now. Background: it
      returns at once and [f] runs on the reclaimer domain — or here, after
      the grace period, when the bag is full past the backpressure wait,
      the reclaimer is dead, or [t] is stopping. Inline: the call that
      fills [p]'s bag to [batch] drains it — one [cond_synchronize] on the
      newest cookie (elided if a grace period already covered it), then
      the callbacks in FIFO order.

      [shadow] (passed only while the sanitizer is armed) is marked
      [Deferred] here — a double retire raises [Sanitizer.Violation]
      ([Double_free]) before the bag is touched — and [Reclaimed] when [f]
      runs. Call outside any read-side critical section (a drain or
      fallback may synchronize). *)

  val drain : t -> producer -> unit
  (** Inline reclaimer: run everything in [p]'s bag after its grace
      period, repeating until the bag stays empty — callbacks that retire
      further work into [p] run too. An empty bag pays no grace period.
      Call at thread teardown so a bag shorter than [batch] is never
      leaked. Background reclaimer: no-op (its domain drains [p], and
      {!stop} sweeps it). Call only from [p]'s own domain. *)

  val stop : t -> unit
  (** Drain every bag (freeing after each item's grace period), join the
      reclaimer domain if there is one, and sweep anything a dead
      reclaimer or an undrained inline bag left behind.
      After [stop] returns, every callback ever passed to {!call_rcu}
      has run — the sanitizer [audit] of a stopped reclaimer's shadows
      reports zero leaked deferrals. Idempotent. Producers must be
      quiescent (no concurrent {!call_rcu}) by the time [stop] is
      called. *)

  val pending : t -> int
  (** Retired pointers not yet freed (racy snapshot). *)

  val capacity : t -> int
  (** The per-bag watermark this reclaimer was created with. *)

  val pressure : t -> float
  (** Backlog pressure: the fullest retired bag's fill fraction against
      the watermark, plus any held-over batch — 0.0 idle, 1.0 at the
      watermark (producer backpressure about to engage) — plus 1.0
      whenever a grace-period wait has been blocked longer than
      {!gp_stall_ns} (a stalled reader: the saturation case bag depth
      cannot see). Values above 1.0 mean saturated. Always 0.0 on an
      inline reclaimer, whose producers wait for their own grace
      periods. Racy snapshot; the
      serving layer polls it for reclamation-aware admission
      (SERVING.md). *)

  val batches : t -> int
  (** Reclaim passes (background) or drains (inline) that freed at least
      one pointer. *)

  val crashes : t -> int
  (** Reclaimer incarnations that died and were restarted (or, past the
      budget, declared the reclaimer dead). *)

  val backpressure_waits : t -> int
  (** Producer enqueues that found their bag at the watermark and had to
      wait or free inline. *)

  val alive : t -> bool
  (** The background domain is accepting work (not dead, not stopped). *)

  val on_reclaimer_domain : t -> bool
  (** True when called from [t]'s own reclaimer domain — lets a callback
      distinguish running in the background (where it may enqueue
      follow-up work into a reclaimer-owned bag) from running inline on
      a producer via a fallback path (where it must not touch that
      bag: single-producer discipline). *)

  val stopped : t -> bool
end
