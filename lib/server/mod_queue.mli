(** Bounded multi-producer single-consumer modification queue.

    The write path of the serving layer: client domains enqueue [Insert]/
    [Delete] operations, one updater domain per shard drains them in FIFO
    order and applies them to the shard's Citrus tree (see
    {!Shard_router} and SERVING.md). The queue is a spinlock-guarded ring
    — the critical section is a handful of stores, the lock carries the
    lockdep class ["server.mod_queue"] so the leaf-lock protocol (never
    held across tree operations) is machine-checked, and the bound is the
    backpressure mechanism: a full queue rejects the enqueue rather than
    buffering unbounded overload.

    Observability: accepted enqueues count [mod_enqueues] and trace
    [Mod_enqueue], rejections count [mod_drops], drains count
    [mod_drained] / trace [Mod_drain] and sample each operation's
    enqueue-to-drain delay into [mod_queue_wait_ns], purged entries count
    [writes_lost] ([Repro_sync.Metrics]). Fault points ["server.enqueue"]
    and ["server.drain"] fire before the lock is taken, and
    ["server.drain.stall"] fires on the drain side for wedging the
    updater with a [delay_ns] action ([Repro_fault.Fault]). *)

type op = Insert of int * int | Delete of int

(** {2 Completions}

    A write-once cell a client may attach to an operation to wait for its
    result — the synchronous option on the asynchronous write path. *)

type completion

type status =
  | Pending  (** accepted, not yet applied *)
  | Done of bool  (** applied; the operation's result *)
  | Aborted
      (** the accepted write was discarded before application — its shard
          failed past the restart budget or shutdown was forced past the
          drain deadline (see {!purge}) *)
  | Expired
      (** the write's end-to-end deadline elapsed before the updater
          applied it; the drain discarded it unapplied (see {!drain} and
          SERVING.md, "Deadline propagation") *)
  | Replayed of bool
      (** applied by a replacement updater replaying a crashed
          predecessor's adopted batch; the bool is the operation's
          observed result {e on replay} — an [Insert] the dead updater
          may already have applied legitimately reports [false] here, so
          the honest answer is "applied at least once, result as of the
          last application" (see SERVING.md, "Crash recovery") *)

val completion : unit -> completion
(** A fresh pending cell. *)

val complete : completion -> bool -> unit
(** Resolve the cell with the operation's result (updater side). No-op if
    the cell was already resolved. *)

val abort : completion -> unit
(** Resolve the cell as abandoned (purge side). No-op if the cell was
    already completed — a resolved result is never un-resolved. *)

val expire : completion -> unit
(** Resolve the cell as deadline-expired (drain side). No-op if already
    resolved. *)

val complete_replayed : completion -> bool -> unit
(** Resolve the cell as applied-by-replay (replacement-updater side),
    carrying the result of the replayed application. No-op if already
    resolved. *)

val peek : completion -> status

val await : completion -> status
(** Spin (with {!Repro_sync.Backoff}, so the wait escalates to naps and
    never starves the updater on one core) until the cell resolves;
    returns the resolved status (never [Pending]). Only terminates if an
    updater is draining — or a purge abandons — the queue the operation
    was accepted into. *)

(** {2 The queue} *)

type entry = {
  op : op;
  completion : completion option;
  enqueued_at : int;  (** [Metrics.now_ns] at enqueue *)
  deadline_ns : int;
      (** absolute completion deadline on the monotonic clock, carried
          from the client through the router; 0 = none. The updater's
          drain checks it {e before} applying and resolves expired
          entries with {!status.Expired} instead of burning time on
          abandoned work. *)
  probe : bool;
      (** the entry was admitted as a {!Breaker} probe ([Half_open]);
          the updater reports its outcome with [~probe:true] so the
          breaker can decide close vs re-open *)
}

type t

type stats = {
  enqueued : int;  (** operations accepted *)
  dropped : int;  (** enqueue attempts rejected (queue full) *)
  drained : int;  (** operations spliced out by {!drain} *)
  purged : int;  (** accepted operations discarded by {!purge} *)
  max_depth : int;  (** high-water mark of the queue length *)
  depth : int;  (** the configured capacity *)
}

val create : ?id:int -> depth:int -> unit -> t
(** A queue holding at most [depth] pending operations. [id] labels
    [Mod_enqueue] trace events (the owning shard's index).
    @raise Invalid_argument if [depth <= 0]. *)

val id : t -> int
val depth : t -> int

val length : t -> int
(** Current queue length — racy snapshot, for monitoring only. *)

(** Admission verdicts, distinguishing the two rejection causes so the
    router can type them ([Full] backpressure vs [Failed]/[Shutdown]). *)
type admit =
  | Admitted  (** appended; will be drained in FIFO order *)
  | Admit_full
      (** at capacity — retryable backpressure; counts [mod_drops] *)
  | Admit_closed
      (** {!close} was called — permanent; nothing was queued and an
          attached [completion] never resolves *)

val enqueue :
  t -> ?completion:completion -> ?deadline_ns:int -> ?probe:bool -> op -> admit
(** Append an operation, optionally carrying its absolute deadline
    (default 0 = none) and its breaker-probe flag (default false). Safe
    from any domain. Runs the staleness watchdog check when armed (see
    {!set_stall_threshold_ns}). On [Admit_full]/[Admit_closed] the
    operation is NOT queued and any [completion] never resolves. *)

val try_enqueue :
  t -> ?completion:completion -> ?deadline_ns:int -> ?probe:bool -> op -> bool
(** [enqueue t ?completion ?deadline_ns ?probe op = Admitted] — for
    callers indifferent to the rejection cause. *)

val close : t -> unit
(** Permanently stop admitting entries ({!enqueue} returns
    [Admit_closed]). Taken under the queue lock: once [close] returns,
    every concurrent enqueue has either already landed its entry —
    visible to a subsequent {!drain} or {!purge} — or is rejected, so a
    purge (or drain-to-empty) after [close] provably strands nothing.
    Draining is unaffected; idempotent. This is the admission barrier of
    the failure paths: a shard marked [Failed] and router shutdown both
    [close] before sweeping the queue. *)

val is_closed : t -> bool

val drain : t -> max:int -> entry array
(** Splice out up to [max] operations in FIFO order. The lock is released
    before returning: the caller applies the entries lock-free with
    respect to this queue, so queue locks never nest with tree-node
    locks. Single consumer: FIFO application order is only meaningful
    with one draining domain. Empty array = queue empty. Every call —
    including on an empty queue — feeds the staleness watchdog and
    records the calling domain as the queue's drainer.
    @raise Invalid_argument if [max <= 0]. *)

val purge : t -> int
(** Discard every queued entry, aborting attached completions so their
    waiters unblock with [None]; returns the number of entries lost
    (counted into the [writes_lost] metric). The loud last resort of the
    failure paths: a shard marked [Failed] past its restart budget, or a
    shutdown forced past its drain deadline. Single-consumer like
    {!drain} — call only when no updater is draining the queue. *)

val stats : t -> stats
(** Counter snapshot taken under the queue lock, so the fields are
    mutually consistent even while producers and the consumer run. *)

(** {2 Staleness watchdog}

    The grace-period stall-watchdog pattern ([Repro_rcu.Stall]) ported to
    the write path: when armed, producers check on each enqueue whether
    the queue is non-empty and no {!drain} has run for more than the
    threshold — a wedged, crashed, or grace-period-bound updater — and
    emit one structured warning per threshold window, naming the shard
    and the updater domain, counting [mod_queue_stalls] and tracing
    [Mod_stall]. *)

val set_stall_threshold_ns : int -> unit
(** Arm the watchdog process-wide ([0] disarms, the default). The check
    costs producers one atomic load when disarmed.
    @raise Invalid_argument if negative. *)

val stall_threshold_ns : unit -> int

val check_stall : t -> unit
(** Run one watchdog check explicitly (the same check enqueues run) —
    for pollers that want stall detection on an otherwise idle queue. *)

val last_drain_ns : t -> int
(** Timestamp of the most recent {!drain} call (creation time if none). *)

val drainer_domain : t -> int
(** Domain id of the last draining domain; [-1] before the first drain. *)
