(** Mutation suite: prove the reclamation sanitizer detects real bugs.

    Each hunt runs a seeded grace-period bug under the armed sanitizer
    ([Repro_sanitizer.Sanitizer]) with fault-injection delays widening
    the vulnerable windows, retrying with derived seeds until a
    [Sanitizer.Violation] is observed or the attempt budget runs out.
    {!controls} replays the same configurations without the mutants and
    must report zero violations. [citrus_tool mutants] and the test
    suite drive both and fail if any mutant escapes or any control
    trips. *)

type result = {
  mutant : string;  (** which seeded bug (or ["control:..."]) *)
  attempts : int;  (** attempts used (the catching one, or the budget) *)
  violations : int;  (** total sanitizer violations observed *)
  caught : bool;  (** true iff at least one violation was raised *)
}

val pp_result : result -> string
(** One-line human-readable summary. *)

val skip_sync : ?seed:int -> ?attempts:int -> unit -> result
(** Mutant (a): Citrus over {!Citrus_buggy.Broken_sync} — [synchronize]
    is a no-op, so the two-child delete's grace period (and every inline
    reclaimer drain's) is skipped and retired nodes are freed while parked
    readers still hold them. *)

val early_free : ?seed:int -> ?attempts:int -> unit -> result
(** Mutant (d): [Repro_rcu.Reclaimer.Buggy.early_free] — the background
    call_rcu reclaimer frees retired pointers without waiting on their
    epoch cookies, over an otherwise-correct tree with [call_rcu] on.
    The exact bug the epoch-tagged bags exist to prevent. *)

val urcu_single_flip : ?seed:int -> ?attempts:int -> unit -> result
(** Mutant (b): [Repro_rcu.Urcu.Buggy.single_flip] — the grace period
    flips the reader phase once instead of twice, missing readers whose
    phase snapshot went stale between loading the phase and publishing
    their slot (forced by the [urcu.read.enter] fault point). *)

val qsbr_quiescence : ?seed:int -> ?attempts:int -> unit -> result
(** Mutant (c): [Repro_rcu.Qsbr.Buggy.quiescent_in_section] — a nested
    read-side entry reports a fresh quiescent state, releasing a
    grace-period scan that was correctly waiting out the enclosing
    section. *)

val all : ?seed:int -> ?attempts:int -> unit -> result list
(** The four mutants, in order (a), (d), (b), (c). Every [caught] must
    be true. *)

val controls : ?seed:int -> unit -> result list
(** The same configurations with the mutants disabled; every
    [violations] must be 0. *)

(** {2 Lockdep mutants}

    Same contract for the lockdep validator ([Repro_lockdep.Lockdep]):
    three locking-protocol bugs seeded into the real Citrus update paths
    ({!Citrus.Buggy}) must each raise a structured [Lockdep.Violation].
    Unlike the sanitizer hunts, these are control-flow bugs — one
    single-domain round is deterministic, so every hunt uses exactly one
    attempt and needs no fault injection. *)

val lockdep_abba : unit -> result
(** [delete] takes curr's lock before prev's: [Order_inversion] on the
    ordered tree-node class, flagged at the second acquisition. *)

val lockdep_sync_in_read : unit -> result
(** The two-child delete waits for a grace period from inside a
    read-side critical section: [Sync_in_read_section]. *)

val lockdep_unbalanced_unlock : unit -> result
(** [insert] unlocks a lock the caller never took: [Release_not_held]. *)

val lockdep_all : unit -> result list
(** The three lockdep mutants, in the order above. Every [caught] must
    be true. *)

val lockdep_controls : unit -> result list
(** Clean lockdep-armed rounds over all three RCU flavours, with the
    sanitizer armed too so the trees retire what they unlink; every
    [violations] — lockdep violations plus sanitizer violations and
    leaked retirements — must be 0. *)
