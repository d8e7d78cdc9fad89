(** Re-implementation of the general-purpose user-space RCU of Desnoyers et
    al. (IEEE TPDS 2012) — the "standard RCU" baseline of Figure 8 (left).

    Per-thread state is a word holding a snapshot of the global grace-period
    counter plus a read-side nesting count; [synchronize] acquires a
    {e global lock}, flips the grace-period phase bit twice, and after each
    flip waits for every reader still in the previous phase.

    The global lock is deliberate: it is what makes this implementation
    collapse when many updaters synchronize concurrently, which the paper
    demonstrates and then fixes with {!Epoch_rcu}.

    Grace periods are numbered with a single [gp_seq] word in the Linux
    encoding ([(completed lsl 1) lor in_progress], written only under the
    lock) to support {!Rcu_intf.S.poll}; a [synchronize] that queued on the
    lock re-checks the sequence after acquiring it and, if a grace period
    completed past its snapshot while it waited, returns without flipping —
    N queued synchronizers coalesce into O(1) grace periods. See DESIGN.md
    ("Grace-period sequence numbers and coalescing"). *)

include Rcu_intf.S

val read_depth : thread -> int
(** Current read-side nesting depth (from the thread's own word); for tests. *)
