(** Lockdep: a Linux-lockdep-style locking correctness validator.

    Every instrumented lock carries a {e lock class} (allocation-site role
    plus a human-readable name); lockdep maintains a per-domain held-lock
    stack and a process-global class-dependency graph, and flags a
    potential ABBA deadlock the {e first} time an inverted acquisition
    order is ever observed — no deadlock needs to actually fire. Classes
    created with [~ordered:true] additionally enforce an explicit
    acquisition order {e within} the class: each acquisition carries an
    order token (Citrus's hand-over-hand root-to-leaf protocol becomes
    tokens 0, 1, 2, ...), and taking a lower token while a higher one is
    held is an order-inversion violation.

    The same per-domain context tracker enforces the RCU usage rules:
    {!check_sync} (called by [synchronize]/[cond_synchronize] and the
    grace-period coalescing wait queue) raises while the domain's
    read-side nesting is positive, and {!rcu_read_exit} raises on an
    unbalanced [read_unlock]. Releasing a lock the domain does not hold
    (double unlock, foreign unlock) and re-acquiring a held lock are also
    violations.

    Every violation raises {!Violation} with a structured {!report}:
    the class names involved, the acquisition backtraces of {e both} ends
    of an inverted dependency, the domain, the held-lock stack, and the
    reader slot for RCU-context violations.

    Cost discipline: off by default. Instrumented sites are gated on the
    lockdep bit of the arming word ([Repro_fault.Arm]) — the disarmed
    cost is one load and a branch per site, shared with the sanitizer,
    trace and fault bits. Arm with [Arm.with_ Arm.lockdep], or
    process-wide with [REPRO_LOCKDEP=1]. Arm and disarm only at
    quiescent points (no locks held, no read-side critical section open
    on any domain): lockdep only sees events that happen while it is
    armed, so arming inside a critical section makes the matching
    release look unbalanced.

    This module sits below [Repro_sync] in the dependency stack (the
    locks themselves call into it), so it depends only on the stdlib and
    the arming word, and exposes its counters for [Metrics] to read at
    snapshot time and a {!set_violation_hook} for [Trace] to record
    violations. *)

(** {1 Arming} *)

val enabled : unit -> bool
(** The lockdep bit of [Repro_fault.Arm]'s word. *)

(** {1 Lock classes} *)

(** Role of a lock class, the coarse half of a class identity (the fine
    half is the allocation-site name passed to {!new_class}). *)
type role =
  | Tree_node  (** per-node locks of a search structure *)
  | Gp  (** a grace-period / synchronize serialization lock *)
  | Registry  (** a debug-tool registry or table lock *)
  | Generic  (** unclassified (the default for bare [create ()]) *)

val role_to_string : role -> string

type cls
(** A lock class. At most one class per allocation site; locks created at
    the same site share the class, as in Linux lockdep. *)

val new_class : ?ordered:bool -> role -> string -> cls
(** [new_class role name] registers a class. [~ordered:true] makes
    within-class nesting subject to order tokens (see {!lock_acquired});
    unordered classes may nest within themselves freely (hand-over-hand
    baselines rely on this escape hatch). Class capacity is bounded;
    registrations past the bound all share one overflow class. *)

val generic : cls
(** The class of locks created without an explicit class. Unordered;
    class id 0. *)

val cls_id : cls -> int
(** Dense non-negative class identifier ([generic] is 0) — carried as
    the [Lock_acquire] trace argument. *)

val cls_name : cls -> string

val new_lock_id : unit -> int
(** Fresh per-lock identity (> 0), used to detect re-acquisition of the
    very same lock. *)

(** {1 Violations} *)

type kind =
  | Order_inversion
      (** an ordered-class lock was taken with an order token not above
          every held token of the same class *)
  | Dependency_cycle
      (** this acquisition would close a cycle in the class-dependency
          graph — the classic ABBA deadlock, flagged on first inversion *)
  | Recursive_lock  (** the very same lock is already held *)
  | Release_not_held
      (** released a lock the domain does not hold (double unlock or
          foreign unlock) *)
  | Sync_in_read_section
      (** [synchronize]/[cond_synchronize]/coalescing wait entered while
          the domain is inside an RCU read-side critical section *)
  | Unbalanced_read_unlock
      (** [read_unlock] with no matching [read_lock] on this domain *)

val kind_to_string : kind -> string

type report = {
  kind : kind;
  cls : string;  (** class of the acquisition/release at fault ("" if n/a) *)
  other_cls : string;
      (** the other end of an inverted dependency ("" if n/a) *)
  domain : int;  (** id of the domain that tripped the check *)
  reader_slot : int;
      (** RCU reader slot for context violations, [-1] otherwise *)
  reader_nesting : int;  (** read-side nesting depth at the violation *)
  held : string list;
      (** classes (with order tokens) held by the domain, most recent
          first *)
  backtrace : string;  (** where the violating call happened *)
  other_backtrace : string;
      (** first-observation backtrace of the conflicting dependency edge
          ("" if n/a) *)
}

exception Violation of report
(** Also registered with [Printexc] so uncaught violations print the
    full structured report. *)

val report_to_string : report -> string

val set_violation_hook : (int -> unit) -> unit
(** Called with the offending class id on every violation, before the
    raise — [Repro_sync.Trace] installs the [Lockdep_violation] trace
    recorder here. *)

(** {1 Lock hooks} (called by the instrumented locks, gated on
    {!enabled}) *)

val lock_acquired : cls -> id:int -> order:int -> unit
(** Record and validate a {e blocking} acquisition, called before the
    caller starts spinning (so an ABBA report fires instead of the
    deadlock). [order] is the within-class order token, [-1] for
    unordered acquisitions.
    @raise Violation on recursion, order inversion, or dependency
    cycle. *)

val trylock_acquired : cls -> id:int -> order:int -> unit
(** Record a successful non-blocking acquisition: pushes the held entry
    and records dependency edges but never reports inversions or cycles
    (a trylock cannot deadlock). *)

val lock_released : cls -> id:int -> unit
(** Pop the matching held entry.
    @raise Violation ([Release_not_held]) if this domain does not hold
    the lock; the caller must leave the lock state untouched in that
    case. *)

(** {1 RCU context hooks} *)

val rcu_read_enter : slot:int -> unit
(** Read-side critical-section entry on this domain (nestable); [slot]
    is the flavour's reader slot index, reported on violations. *)

val rcu_read_exit : unit -> unit
(** @raise Violation ([Unbalanced_read_unlock]) if nesting is zero. *)

val check_sync : unit -> unit
(** @raise Violation ([Sync_in_read_section]) if this domain is inside a
    read-side critical section. *)

val read_nesting : unit -> int
(** This domain's current lockdep-tracked read-side nesting. *)

(** {1 Counters and reset} *)

val checks : unit -> int
(** Total validation events processed while armed (acquisitions,
    releases, RCU context checks) — the [lockdep_checks] metric. *)

val violations : unit -> int
(** Total violations detected — the [lockdep_violations] metric. *)

val reset_counters : unit -> unit

val reset : unit -> unit
(** Zero the counters, clear the dependency graph, and clear the
    {e calling} domain's held-lock stack and read-side nesting (other
    domains' stacks cannot be reached; reset from a quiescent point).
    The mutation suite calls this between hunts so a caught violation's
    abandoned locks do not leak into the next round. *)
