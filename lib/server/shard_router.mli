(** Hash-sharded dictionary service with an asynchronous, supervised
    write path.

    [Make (D)] partitions the key space across [shards] independent
    instances of [D] (each with its own RCU domain registration, lock
    classes and Citrus tree when [D] is a Citrus flavour), routed by a
    splitmix64 hash of the key. Reads ([get]/[mem]) go directly to the
    owning shard's tree — wait-free, as in the paper. Writes are enqueued
    into the shard's bounded {!Mod_queue} and applied by the shard's
    dedicated updater domain, so a client never pays a grace period; the
    updater does, and a grace-period-blocked updater stalls only its own
    shard. Clients either fire-and-forget ([insert]/[delete]) or wait on
    a completion cell ([insert_wait]/[delete_wait]).

    Robustness (see ROBUSTNESS.md, "Serving-layer failure model"): each
    updater runs under a {!Supervisor} — a crash frees the dead domain's
    RCU slot and a restarted incarnation adopts the surviving queue plus
    the crashed one's spliced-but-unapplied batch, so accepted writes
    survive crashes; past the restart budget the shard is marked
    [Failed] (reads keep working, writes reject). Admission is gated by
    a per-shard {!Health} state machine; rejects are typed
    ({!type-reject}) so clients can tell retryable backpressure from
    permanent failure. [shutdown] drains under a deadline and
    force-stops with a structured report instead of blocking forever.

    Lifecycle: [create] (no domains yet) → optional {!val-load} prefill →
    [start] (one supervised updater per shard) → clients [register]/
    operate/[unregister] → [shutdown]. [start] and [shutdown] are
    single-threaded lifecycle calls (the owning thread); everything
    between [register] and [unregister] is safe from any client
    domain. *)

(** Why a write was not admitted (or, for waited writes, was admitted
    and then discarded or expired by a failure path). [Full], [Overload]
    and [Breaker_open] are retryable — the backlog can drain and the
    breaker re-offers; [Expired] is terminal for the operation (its
    deadline is gone); [Failed] and [Shutdown] are permanent for the
    shard/router respectively. *)
type reject =
  | Full  (** owning shard's queue at capacity (backpressure) *)
  | Overload
      (** shed: the owning shard is [Degraded] and the write carried no
          completion to wait on *)
  | Breaker_open
      (** the owning shard's circuit {!Breaker} rejected the write —
          the shard recently crashed or its failure rate tripped; admit
          resumes on the breaker's jittered probe schedule *)
  | Expired
      (** the write's end-to-end deadline elapsed — either before
          admission (dead on arrival) or in the queue (the updater's
          drain expired it unapplied); counts [writes_expired] *)
  | Failed  (** owning shard exhausted its restart budget *)
  | Shutdown  (** the router is stopping *)

val reject_name : reject -> string
(** ["full" | "overload" | "breaker_open" | "expired" | "failed" |
    "shutdown"] — the JSON-report spelling. *)

(** The resolved result of a waited write. [Replayed] is the honest
    post-crash status: the entry was part of a crashed updater's adopted
    batch and was (re-)applied by the replacement, so the predecessor
    may already have applied it once — the boolean is the result {e as
    of the last application} (an [Insert] already applied before the
    crash replays as [Replayed false] even though it took effect). *)
type write_result = Applied of bool | Replayed of bool

val write_result_value : write_result -> bool
(** The tree-level boolean, for callers indifferent to replay. *)

type drain_report = {
  shard : int;
  queue_depth : int;  (** entries still queued at the deadline *)
  last_drain_ns : int;  (** when the shard's updater last drained *)
  crashes : int;  (** updater crashes over the shard's lifetime *)
  lost : int;  (** accepted writes purged (completions aborted) *)
  wedged : bool;  (** updater never exited; its domain was abandoned *)
}
(** Per-shard record of a forced shutdown, also printed to stderr. *)

type shutdown_result =
  | Drained  (** every shard applied its whole backlog *)
  | Forced of drain_report list
      (** the deadline expired; one report per shard that lost writes or
          had to be abandoned *)

module Make (D : Repro_dict.Dict.DICT) : sig
  type t
  type handle

  val create :
    ?shards:int ->
    ?queue_depth:int ->
    ?drain_batch:int ->
    ?max_clients:int ->
    ?supervisor:Supervisor.policy ->
    ?breaker:Breaker.config ->
    ?seed:int64 ->
    unit ->
    t
  (** Defaults: 4 shards, queue depth 1024, drain batch 64, 64 clients,
      {!Supervisor.default_policy}, {!Breaker.default_config}, seed 42.
      Each shard's health uses the fixed thresholds of {!Health.create}. [max_clients] sizes each
      shard's registry ([D.create ~max_threads:(max_clients + 2)] —
      clients plus the updater and one setup registration). [seed]
      derives every shard's deterministic jitter streams (breaker open
      intervals, supervisor restart backoff) via per-shard golden-ratio
      salts, so a run is reproducible end to end while shards stay
      decorrelated. No domains are spawned; writes enqueued before
      {!start} sit in the queues. The chaos mutants ({!Chaos}) seed
      their bugs by arming fault points, not through parameters:
      ["bug.router.forget_backlog"] (a restarted updater drops the
      adopted batch), ["bug.router.skip_deadline"] (the drain applies
      expired entries) and ["bug.breaker.never_open"].
      @raise Invalid_argument on non-positive parameters. *)

  val n_shards : t -> int

  val shard_of : t -> int -> int
  (** The shard index owning a key (deterministic). *)

  val start : t -> unit
  (** Spawn one supervised updater per shard. Idempotent; no-op after
      {!shutdown}. *)

  val shutdown : ?deadline_ns:int -> t -> shutdown_result
  (** Stop accepting writes (admission is closed under each queue lock,
      so a producer racing the shutdown either gets its entry applied or
      a typed [Shutdown] reject — never a stranded entry), then let each
      updater drain its backlog — every accepted completion resolves —
      returning [Drained]; entries that slipped in behind an exiting
      updater (including a backlog enqueued when {!start} was never
      called) are applied by the shutdown caller itself. If the drain
      exceeds [deadline_ns] (default 5 s): force-stop — updaters exit at
      their next batch boundary, remaining queue entries {e and} any
      wedged updater's unapplied batch are discarded with their
      completions aborted (waiters unblock with a typed reject; all of
      it counts into [lost]), a structured report is emitted per
      affected shard, and wedged updater domains are abandoned rather
      than joined — returning [Forced]. An abandoned domain may still
      apply part of its batch, so after [Forced] the tree contents are
      best-effort. Idempotent (later calls return the first result).
      Clients may still be registered; their writes are rejected and
      reads keep working. *)

  (** {2 Client operations} *)

  val register : t -> handle
  (** Register the calling domain with every shard. One handle per
      domain.
      @raise Repro_sync.Registry.Full if any shard's registry is full
        (no registration is leaked). *)

  val unregister : handle -> unit

  val get : handle -> int -> int option
  (** Direct read on the owning shard's tree (RCU read section; never
      blocks on writers). May miss writes still queued — see SERVING.md,
      "Consistency". Keeps working on [Degraded] and [Failed] shards. *)

  val mem : handle -> int -> bool

  val insert : handle -> ?deadline_ns:int -> int -> int -> (unit, reject) result
  (** Fire-and-forget: [Ok ()] = accepted into the owning shard's queue
      (it will be applied in FIFO order, surviving updater crashes),
      [Error r] = rejected with the typed reason. [deadline_ns] is the
      operation's absolute deadline on the monotonic clock (0/absent =
      none): it rides the queue entry, and the updater's drain resolves
      entries whose deadline has passed as expired {e without} applying
      them — so under overload the backlog sheds its dead work instead
      of serving every live write behind it (SERVING.md, "Deadline
      propagation"). The tree-level result is unobservable; use
      {!insert_wait} to learn it. *)

  val delete : handle -> ?deadline_ns:int -> int -> (unit, reject) result

  val insert_wait :
    handle -> ?deadline_ns:int -> int -> int -> (write_result, reject) result
  (** Enqueue with a completion cell and spin until the updater resolves
      the operation: [Ok (Applied r)] is the tree-level result
      ([insert]'s "was absent"); [Ok (Replayed r)] the post-crash replay
      status (see {!type-write_result}). [Error] before acceptance is a
      typed reject (waited writes are still admitted on a [Degraded]
      shard — the waiter is the backpressure); after acceptance,
      [Error Expired] means the updater expired the queued write at its
      deadline, and [Error Failed]/[Error Shutdown] mean it was
      discarded by a failure path (shard failed, or shutdown forced past
      its drain deadline). Only call while updaters run (between
      {!start} and {!shutdown}); the wait includes the operation's whole
      queueing delay.

      Post-crash caveat: if an updater crash lands {e inside} the
      dictionary operation after it linearized, the restarted updater's
      idempotent replay returns the no-op answer — [Replayed] makes the
      window visible, but the boolean is still only "as of the last
      application". The write itself is never lost. *)

  val delete_wait :
    handle -> ?deadline_ns:int -> int -> (write_result, reject) result

  val load : handle -> int -> int -> bool
  (** Direct, queue-bypassing insert into the owning shard — for initial
      bulk load before {!start}. Not ordered with queued writes; do not
      mix with them. *)

  (** {2 Fault injection} *)

  val crash_updater : t -> int -> unit
  (** Arm a one-shot crash of shard [i]'s updater: it raises
      [Fault.Injected "server.updater.crash"] at the next
      entry-application boundary (so the crash always lands with the
      rest of the batch unapplied — the adoption window). Deterministic,
      unlike arming the named fault point with a rate. *)

  (** {2 Monitoring} *)

  val queue_stats : t -> Mod_queue.stats array
  (** Per-shard queue counters (index = shard), each snapshotted under
      its queue lock. *)

  val health : t -> Health.state array
  (** Per-shard health states (index = shard). *)

  val breaker_states : t -> Breaker.state array
  (** Per-shard circuit-breaker states (index = shard). *)

  val breaker_trips : t -> int
  (** Total breaker Open transitions across all shards. *)

  val breaker_rejects : t -> int
  (** Total writes rejected by breakers across all shards. *)

  val reclaim_pressures : t -> float array
  (** Per-shard reclamation pressure ({!Repro_citrus.Citrus.reclaim_pressure}
      units: fraction of the retired-bag watermark; 0 for dictionaries
      without a background reclaimer). Racy snapshot. *)

  val pressure_latched : t -> bool array
  (** Per-shard reclamation-pressure latches ({!Health.pressure_latched}). *)

  val with_shard_reader : t -> int -> (unit -> unit) -> unit
  (** Chaos seam: hold an RCU read section open on shard [i]'s table
      (via a throwaway registration on the calling domain) for the
      duration of the callback. While it runs, no grace period on that
      shard completes and its retired backlog only grows — the
      stall-reader scenario ({!Chaos}). Do not call from a domain
      already registered with the shard. *)

  val crashes : t -> int array
  (** Per-shard updater crash counts ([[||]] before {!start}). *)

  val restarts : t -> int array

  val restart_latencies_ns : t -> int list
  (** Crash-to-replacement-running samples across all shards — stable
      after {!shutdown}. *)

  val drained : t -> int
  (** Total operations applied across all shards — the aggregate write
      throughput numerator. Racy while running. *)

  val size : t -> int
  val to_list : t -> (int * int) list
  val check : t -> unit
end
