(** Entry point of the RCU library: re-exports and the implementation
    registry used by benchmarks to sweep over RCU flavours. *)

module type S = Rcu_intf.S

module Epoch : S
(** The paper's new RCU (Section 5): per-thread counter+flag, lock-free
    [synchronize]. See {!Epoch_rcu}. *)

module Urcu : S
(** The stock general-purpose user-space RCU baseline with a global
    grace-period lock. See {!Urcu}. *)

module Qsbr : S
(** Quiescent-state-based RCU: free read side, coarser reporting. See
    {!Qsbr} for the native online/offline/quiescent API. *)

val implementations : (string * (module S)) list
(** All flavours, keyed by [name], for benchmark sweeps. *)

module Stall : module type of Stall
(** The grace-period stall watchdog shared by all flavours (arm/disarm,
    report shape, handler). See {!Stall}. *)

module Gp : module type of Gp
(** The grace-period driver shared by all flavours, and its
    process-global coalescing switch (on by default; benchmarks flip it
    to measure the uncoalesced baseline). See {!Gp}. *)

module Reclaimer : module type of Reclaimer
(** call_rcu: per-producer epoch-tagged retired bags drained by a
    supervised background reclaimer domain, plus the process-global
    switch that routes Citrus deletes through it. See {!Reclaimer}. *)

exception Stalled of Stall.report
(** Raised by [synchronize] when the watchdog is armed in [Fail] mode and
    a reader blocks the grace period past the threshold. The aborted
    [synchronize] provides no grace-period guarantee. *)
