(* Test-only seeded mutant: Citrus over an RCU flavour whose grace
   periods are no-ops. Exists solely so the mutation suite
   ([Mutation], [citrus_tool mutants]) can prove the reclamation
   sanitizer detects the resulting premature reclamation. Never use in
   production code or benchmarks. *)

(* The wrapped flavour answers every grace-period question with "already
   elapsed": [synchronize] returns immediately and [poll] is always true,
   so the reclaimer elides every wait and retired nodes are reclaimed while
   pre-existing readers can still reach them — the exact bug class the
   two-child delete's [synchronize] (paper, Section 4) exists to prevent.
   Read-side tracking is inherited unchanged, which matters: the readers
   are innocent, and the sanitizer report must blame the reclaimer. *)
module Broken_sync (R : Repro_rcu.Rcu.S) : Repro_rcu.Rcu.S = struct
  include R

  let name = R.name ^ "+broken-sync"
  let synchronize _ = ()
  let poll _ _ = true
  let cond_synchronize _ _ = ()
end

module Make (K : Citrus.ORDERED) (R : Repro_rcu.Rcu.S) =
  Citrus.Make (K) (Broken_sync (R))
