(** Quiescent-state-based RCU (QSBR) — the third classic user-space RCU
    flavour (Desnoyers et al., IEEE TPDS 2012), provided for completeness
    and for the read-side-cost ablation.

    QSBR inverts the reporting duty: read-side critical sections are free
    (no stores at all); instead each thread periodically announces a
    {e quiescent state} — a point at which it holds no RCU-protected
    references. [synchronize] waits until every online thread has either
    announced quiescence or gone offline.

    The price is the documented QSBR weakness: a registered online thread
    that stops announcing stalls every grace period. The {!Rcu_intf.S}
    adapter below therefore maps [read_lock]/[read_unlock] to
    online/offline transitions, which preserves correctness while keeping
    the free read side for nested sections.

    Native API ([online]/[offline]/[quiescent_state]) is exposed for
    workloads that batch many read-side sections between announcements.

    Grace periods are sequence-numbered by the global counter itself (scan
    targets are unique, and a [gp_completed] high-water mark records the
    highest target fully waited for) to support {!Rcu_intf.S.poll} and to
    coalesce concurrent synchronizers exactly as in {!Epoch_rcu}: a
    synchronizer that finds a scan in flight waits for the completed number
    to pass its snapshot instead of re-walking the slots. See DESIGN.md
    ("Grace-period sequence numbers and coalescing"). *)

include Rcu_intf.S

val online : thread -> unit
(** Mark the thread as potentially holding references (noop if online). *)

val offline : thread -> unit
(** Announce an extended quiescent period (e.g. before blocking). The
    thread must not hold RCU-protected references. *)

val quiescent_state : thread -> unit
(** Announce a quiescent point without going offline. Call between — never
    inside — read-side critical sections. *)
