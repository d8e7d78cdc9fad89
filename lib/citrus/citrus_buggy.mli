(** Test-only seeded mutant — {b never use outside the mutation suite}.

    {!Make} builds a Citrus tree whose RCU flavour has a broken grace
    period: [synchronize] returns immediately and [poll] always claims
    the grace period elapsed, so deferred reclamation frees nodes while
    pre-existing readers can still reach them. This is the
    [citrus-skip-synchronize] row of the mutant table
    ([Repro_mutants.Mutation]): a run of it under the armed reclamation
    sanitizer must raise [Sanitizer.Violation], proving the sanitizer
    actually detects the bug class the two-child delete's [synchronize]
    prevents. *)

module Broken_sync (R : Repro_rcu.Rcu.S) : Repro_rcu.Rcu.S
(** [R] with no-op grace periods ([synchronize] = nothing, [poll] =
    always true); read-side tracking inherited unchanged. *)

module Make (K : Citrus.ORDERED) (R : Repro_rcu.Rcu.S) : sig
  include module type of Citrus.Make (K) (Broken_sync (R))
end
