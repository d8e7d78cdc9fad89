(** The grace-period driver shared by all three RCU flavours.

    A flavour keeps only its own encoding: its read side, the predicate
    by which a slot word blocks a grace period, how a lock-free scan
    claims its number, and (urcu) its lock and two phase flips. This
    module holds the rest, once: the [synchronize] frame, the reader wait
    with its stall watchdog, and the coalescing gate of the lock-free
    flavours (epoch-rcu and qsbr; urcu's lock queue is its coalescing).
    Nothing here branches on which flavour calls it. See DESIGN.md
    ("Grace-period sequence numbers and coalescing"). *)

(** {2 The coalescing switch} *)

val set_coalescing : bool -> unit
(** Enable (default) or disable coalescing, process-wide, so
    `bench/main.exe -- gp` can measure the uncoalesced baseline in the
    same binary. Correctness does not depend on the flag in either
    position — coalescing only elides redundant waits, never required
    ones. It is consulted on the [synchronize] slow path only (one atomic
    load); the sequence counters behind {!Rcu_intf.S.poll} are maintained
    regardless. Benchmarks must restore the default when done. *)

val coalescing : unit -> bool

(** {2 Per-instance driver state} *)

type t
(** One RCU instance's reader slots, its [synchronize] count, and its
    slot encoding. *)

val create :
  flavour:string ->
  max_threads:int ->
  busy:int ->
  blocks:(target:int -> first:int -> int -> bool) ->
  nesting:(int -> int) ->
  phase:(int -> int) ->
  t
(** [max_threads] padded slot words, all 0. A slot word with no bit of
    [busy] set never blocks a grace period (the scan tests this inline).
    Otherwise [blocks ~target ~first v] decides: does slot word [v] hold
    up a grace period aiming at [target], given that the wait first read
    [first] from the slot? [nesting v] and [phase v] name the reader in a
    {!Stall.report}. *)

val slots : t -> int Atomic.t Repro_sync.Registry.t
(** The reader slots, for [register]/[unregister]. *)

val grace_periods : t -> int
(** [synchronize] calls that returned. *)

val synchronize : t -> ('a -> t0:int -> bool) -> 'a -> unit
(** [synchronize t body ctx] is the frame around one [synchronize]: the
    lockdep RCU-context check, the [Sync_start] trace event, then
    [body ctx ~t0] (which returns whether the call was coalesced), then
    the [grace_periods] count, the [grace_period_ns] timer, the
    [sync_coalesced] metric and the [Sync_coalesced]/[Sync_end] events.
    [t0] is the call's start for the stall watchdog. [body] takes its
    context as an argument rather than as a closure so the frame
    allocates nothing. An exception from [body] ([Stall.Stalled] in fail
    mode) propagates and counts nothing. *)

val wait_for_readers : t -> t0:int -> target:int -> unit
(** Wait until no slot blocks [target]. Each blocked slot waits with its
    own {!Repro_sync.Backoff}, created only once the slot blocks; idle
    slots allocate nothing. With {!Stall} armed, emits one report per
    threshold window naming the slot (and raises [Stall.Stalled] in fail
    mode). Never aborts. *)

(** {2 The coalescing gate} *)

type gate
(** The completed-scan number, the in-flight scan count and the private
    wait queue of a lock-free flavour. *)

val gate : covered:(gp_completed:int -> snap:int -> bool) -> gate
(** [covered] is the flavour's test that a snapshot is satisfied. *)

val completed : gate -> int
(** Highest scan number whose full reader wait finished. *)

val coalesce :
  t -> gate -> t0:int -> snap:int -> ('a -> int) -> 'a -> bool
(** [coalesce t g ~t0 ~snap claim ctx] satisfies a [synchronize] whose
    snapshot is [snap], and returns whether it was coalesced:
    - if a scan that covers [snap] already finished, return [true];
    - if a scan is in flight, piggyback on it — spin 64 [cpu_relax],
      nap twice, then block on the wait queue (with the lockdep
      RCU-context check) — and re-check;
    - otherwise drive a scan and return [false]: cede the CPU if
      anyone waits, take the scan number [claim ctx], wait for the
      readers of that number (aborting once a later scan has finished),
      post the number as completed, and wake every waiter, also when
      the scan aborted or raised.
    With {!coalescing} off, every call drives its own scan. *)
