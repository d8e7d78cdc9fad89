(** Citrus: an internal binary search tree with RCU-protected wait-free
    [contains] and fine-grained-locked concurrent updates (Arbel & Attiya,
    PODC 2014).

    The implementation is a direct transcription of the paper's pseudocode
    (functions [get], [contains], [insert], [delete], [validate],
    [incrementTag]); see the .ml for the line-number correspondence.

    Concurrency contract:
    - [contains] is wait-free (assuming finitely many keys) and runs inside
      an RCU read-side critical section;
    - [insert]/[delete] lock only the O(1) nodes they modify, validate them,
      and restart on validation failure;
    - a [delete] of a node with two children first publishes a {e copy} of
      the successor in the deleted node's position, waits for pre-existing
      readers with [synchronize_rcu], and only then unlinks the original
      successor — so a search in flight never misses the successor.

    Each participating domain must {!Make.register} to obtain a handle; all
    dictionary operations go through handles. *)

module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module Make (K : ORDERED) (R : Repro_rcu.Rcu.S) : sig
  type 'v t
  (** A Citrus tree mapping keys [K.t] to values ['v]. *)

  type 'v handle
  (** Per-domain access handle (carries the RCU thread state). *)

  val create : ?max_threads:int -> ?call_rcu:bool -> unit -> 'v t
  (** An empty tree whose RCU domain admits up to [max_threads] registered
      domains (default 128).

      Retirement — the paper's "future work" integration of RCU-based
      memory reclamation — is armed iff the reclamation sanitizer
      ([Repro_sanitizer.Sanitizer]) is enabled when [create] runs: under
      the GC a retirement is observable only to the sanitizer. An armed
      tree gives every node a delete or rotation unlinks a shadow record
      and retires it through a [Repro_rcu.Reclaimer] bag; one grace
      period later the callback marks it Reclaimed (the moment a C
      implementation would [free] it) and counts it in the ["reclaimed"]
      statistic. Every traversal step checks the shadows: a search that
      touches a node after its reclamation raises [Sanitizer.Violation]
      out of [contains]/[mem] (read sections unwind cleanly;
      node-lock-holding paths record the violation without raising). The
      successor walk of a two-child delete then runs inside a read-side
      critical section — the paper omits this because it never frees
      memory during runs. See ROBUSTNESS.md.

      [call_rcu] (default {!Repro_rcu.Reclaimer.call_rcu_enabled}) spawns
      a background reclaimer domain for this tree and takes the
      grace-period wait off the updater hot path: a two-child [delete]
      returns as soon as the successor copy is published, handing the
      wait-then-unlink continuation (with the node locks still held, so
      the protocol other threads observe is unchanged) to the reclaimer,
      and retired nodes are freed there too. Without it, an armed tree's
      handles drain their own bags inline, one grace period per batch,
      and a disarmed tree allocates no bag at all. A tree created with
      [call_rcu:true] owns a domain and must be {!shutdown}. *)

  val register : 'v t -> 'v handle
  (** Register the calling domain. One handle per domain per tree. *)

  val unregister : 'v handle -> unit

  val contains : 'v handle -> K.t -> 'v option
  (** Wait-free lookup: [Some v] if the key is present. *)

  val mem : 'v handle -> K.t -> bool

  val insert : 'v handle -> K.t -> 'v -> bool
  (** Add the binding; [false] (and no change) if the key is present. *)

  val delete : 'v handle -> K.t -> bool
  (** Remove the binding; [false] if the key is absent. *)

  val shutdown : 'v t -> unit
  (** Stop and join the tree's background reclaimer domain (no-op without
      one): every pending call_rcu continuation — unlinks and frees —
      runs before this returns. Call it once all operations are done,
      and {e before} any quiescent-state helper below: while an async
      delete is in flight the tree legitimately holds a locked reachable
      copy and a duplicate key, which {!check_invariants} would report.
      Idempotent. *)

  (** {2 Quiescent-state helpers}

      The following must only be called while no other operation is in
      flight and, on a [call_rcu] tree, after {!shutdown} (tests,
      reporting). *)

  val size : 'v t -> int
  val to_list : 'v t -> (K.t * 'v) list
  (** In-order (hence sorted) bindings. *)

  val height : 'v t -> int
  (** Height of the tree counted in real (non-sentinel) nodes. *)

  exception Invariant_violation of string

  val check_invariants : 'v t -> unit
  (** Verify in a quiescent state: the tree hangs from the one sentinel
      (whose lock is free and tag non-negative) and no other sentinel is
      reachable; strict BST order, hence no duplicate keys; every
      reachable node carries a value, is unmarked, unlocked, not retired
      (shadow [Deferred] or [Reclaimed]) and has non-negative tags.
      @raise Invariant_violation otherwise. *)

  val stats : 'v t -> (string * int) list
  (** Operation counters: restarts, two-child deletes, one-child deletes,
      inserts, reclaimed nodes (retirement callbacks run; 0 unless
      armed), maintenance rotations, and grace periods. A tree with a
      reclaimer ([call_rcu], or armed) adds its counters
      (reclaim_batches, reclaimer_crashes, reclaim_backpressure,
      reclaim_pending). *)

  val sanitizer : 'v t -> Repro_sanitizer.Sanitizer.domain
  (** The shadow-record namespace of the tree's retired nodes. After every
      handle unregistered and {!shutdown}, [Sanitizer.audit] on it must
      be empty: every retirement ran. *)

  val reclaim_pressure : 'v t -> float
  (** Backlog pressure of the tree's call_rcu reclaimer
      ([Repro_rcu.Reclaimer.Make.pressure]): 0.0 without one or when
      idle, 1.0 when the fullest retired bag reaches its watermark.
      Racy snapshot, safe to poll concurrently — the serving layer's
      admission control reads it per drain batch (SERVING.md). *)

  val with_reader : 'v handle -> (unit -> 'a) -> 'a
  (** Run [f] inside one read-side critical section on [h]'s slot —
      every grace period started while [f] runs waits for it to return.
      The chaos harness's stall-injection seam ([citrus_tool chaos
      --stall-reader]); [f] must not call operations on the same handle
      that wait for a grace period. The section is exited even when [f]
      raises. *)

  (** {2 Maintenance rebalancing}

      The paper's first future-work item ("extend Citrus to a balanced
      search tree"), implemented as {e relativistic maintenance}: a
      rotation marks the sinking node, installs an unmarked copy of it
      below the rising child, and swings one parent pointer — so searches
      in flight keep a consistent obsolete view without any grace period,
      and concurrent updates restart through the ordinary marked-bit
      validation. Rotations may run concurrently with any mix of
      operations, from a dedicated maintenance domain or opportunistically.

      The maintenance walk reads the tree without locks; on an armed tree
      it may traverse already-retired nodes, which is safe under
      the GC (a C port would protect the walk with hazard pointers). *)

  val maintenance_pass : 'v handle -> int
  (** One post-order pass: estimate subtree heights and rotate every node
      whose local imbalance exceeds one. Returns the number of rotations
      performed. Safe concurrently with all other operations. *)

  val balance : ?max_passes:int -> 'v handle -> int
  (** Run {!maintenance_pass} until a pass performs no rotation (or
      [max_passes], default 64, is reached); returns total rotations. On a
      quiescent tree this restores logarithmic height. *)

  (** {2 Test hooks}

      Interleaving-forcing callbacks for the concurrency test-suite; all
      default to no-ops and must be set before concurrent use. *)

  module Hooks : sig
    val on_restart : 'v t -> (unit -> unit) -> unit
    (** Runs every time an update fails validation and restarts. *)

    val between_get_and_lock : 'v t -> (unit -> unit) -> unit
    (** Runs in updates after the read-side critical section ends and before
        locks are taken — the window in which a conflicting update can slip
        in (Figure 5). *)

    val after_find_successor : 'v t -> (unit -> unit) -> unit
    (** Runs in two-child deletes after the successor walk (lines 58-64)
        and before the successor is locked — the window in which a
        conflicting update can invalidate the successor (the validation of
        line 69). The caller holds the locks on prev and curr here. *)

    val before_synchronize : 'v t -> (unit -> unit) -> unit
    (** Runs in two-child deletes after the successor copy is published and
        before [synchronize_rcu] (between Figures 3(d) and 3(e)). *)
  end
end
