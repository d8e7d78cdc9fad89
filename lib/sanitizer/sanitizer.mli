(** Reclamation sanitizer: debug-mode grace-period safety checking.

    The paper's correctness argument rests on one invariant: a node is
    reclaimed only after a grace period covering every reader that could
    still reach it. In the C original a violation segfaults; under OCaml's
    GC it silently reads valid memory and every test passes. This module
    restores the missing failure mode.

    Every reclaimable object registers a {!record} (a {e shadow} of the
    node, never reachable from readers except through the node itself)
    that tracks the logical lifetime the C code would give the memory:

    {v Live --on_defer--> Deferred gp --on_reclaim--> Reclaimed (gp, gp') v}

    [on_defer] corresponds to [free] being scheduled (e.g.
    [Reclaimer.call_rcu])
    and records the grace-period cookie ([read_gp_seq]) current at enqueue;
    [on_reclaim] corresponds to the free actually running after its grace
    period. Instrumented read paths call {!check} on the shadow of every
    node they touch: touching a [Reclaimed] record inside a read-side
    critical section is a logical use-after-free and raises {!Violation}
    with a structured {!report}. The same state machine detects
    double-frees ([on_defer]/[on_reclaim] on an already-retired record)
    and leaked deferrals ({!audit}: records still [Deferred] at teardown).

    Off by default: every instrumented site is gated on the sanitizer
    bit of the arming word ([Repro_fault.Arm]), one load and a branch
    shared with lockdep, trace and fault points. Arm programmatically
    ([Arm.with_ Arm.sanitizer]), per run
    ([citrus_tool torture --sanitize]), or via the environment
    ([REPRO_SANITIZE=1]). See ROBUSTNESS.md for the full design, the
    mutation suite that proves the checker catches seeded bugs, and the
    measured overhead. *)

(** {2 Arming} *)

val enabled : unit -> bool
(** The sanitizer bit of [Repro_fault.Arm]'s word; the gate every
    instrumented site checks first. *)

(** {2 Shadow records} *)

type domain
(** A shadow-record namespace, one per tracked structure (e.g. one Citrus
    tree, one torture run). Holds the table of in-flight [Deferred]
    records for the leak {!audit}; memory is bounded by the reclamation
    backlog, not by objects ever allocated. *)

type record
(** The shadow of one reclaimable object. Store it in the object
    ([mutable shadow : record option]) so read paths can check it. *)

type state =
  | Live  (** reachable; reclamation not yet scheduled *)
  | Deferred of int
      (** free scheduled; the [int] is the grace-period cookie at enqueue *)
  | Reclaimed of int * int
      (** free ran: [(cookie at enqueue, cookie at reclaim)]. Any read-side
          touch from here on is a logical use-after-free. *)

val create : string -> domain
(** [create name] — [name] identifies the structure in reports. *)

val domain_name : domain -> string

val register : domain -> record
(** Fresh shadow record in state [Live], with a domain-unique id. *)

val id : record -> int
val state : record -> state

(** {2 Violations} *)

type kind = Use_after_reclaim | Double_free | Leaked_deferral

type report = {
  kind : kind;
  node_id : int;  (** shadow-record id of the offending object *)
  domain : string;  (** owning {!domain}'s name *)
  deferred_gp : int;  (** grace-period cookie at enqueue, -1 if unknown *)
  reclaimed_gp : int;  (** grace-period cookie at reclaim, -1 if unknown *)
  reader_slot : int;  (** detecting reader's slot, -1 if not a read path *)
  reader_cookie : int;
      (** grace-period cookie captured when the detecting reader entered
          its critical section ([reader_cookie <= reclaimed_gp] is the
          smoking gun: the reclaim happened during the section), 0 if not
          captured *)
  backtrace : string;  (** call stack at the detection site *)
}

exception Violation of report
(** Raised by {!check}, {!on_defer} and {!on_reclaim}. A printer is
    registered, so an uncaught violation prints the full report. *)

val kind_to_string : kind -> string
val report_to_string : report -> string

(** {2 Lifecycle transitions} *)

val on_defer : record -> gp:int -> unit
(** Mark the object's free as scheduled at grace-period cookie [gp].
    Raises [Violation {kind = Double_free; _}] if the record is already
    [Deferred] or [Reclaimed] — the same object was queued for a second
    free. *)

val on_reclaim : ?gp:int -> record -> unit
(** Mark the free as executed (at cookie [gp] if given). Tolerates a
    record still [Live] (manual reclamation that never went through a
    queue); raises [Violation {kind = Double_free; _}] if already
    [Reclaimed]. *)

(** {2 Read-side checks}

    All three count into [Metrics.sanitizer_checks]. [slot] defaults to
    the calling domain's id, [cookie] to 0; read paths should pass the
    RCU flavour's [reader_slot] / [reader_cookie] so reports name the
    guilty critical section. *)

val check : ?slot:int -> ?cookie:int -> record -> unit
(** Raise {!Violation} if the record is [Reclaimed]. Use on read paths
    that hold no locks, where unwinding is safe (read locks must be
    released by a [Fun.protect] wrapper at the section boundary). *)

val note : ?slot:int -> ?cookie:int -> record -> unit
(** Like {!check} but records the violation (counter, metric, trace)
    without raising. Use where the caller holds node locks that a raise
    would leak — e.g. the successor walk inside Citrus's two-child
    delete. The run still fails: harnesses read {!violations}. *)

val observe : record -> unit
(** Count the check only, never a violation. For sites where touching a
    [Reclaimed] node is legal in this GC port and merely interesting —
    e.g. post-lock validation, which is specified to return [false] on
    retired nodes. *)

val violations : unit -> int
(** Process-global count of violations detected (raised {e and} noted)
    since start or {!reset_violations}. *)

val reset_violations : unit -> unit

(** {2 Teardown audit} *)

val audit : domain -> report list
(** Records still [Deferred] — frees promised but never executed (e.g.
    a reclaimer bag was never drained). One [Leaked_deferral] report per
    record, ordered by id. Pure: auditing does not count violations;
    harnesses decide whether leaks fail the run. *)

val deferred_count : domain -> int
(** Number of records currently [Deferred] (the {!audit} size, cheaper). *)
