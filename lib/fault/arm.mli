(** The arming word: one bit each for lockdep, the reclamation
    sanitizer, the event trace and the fault points, and no other arming
    state for them anywhere. Each layer's [enabled] reads its bit. Hot
    sites — the flavours' [read_lock]/[read_unlock], Citrus
    [get]/[insert]/[delete], [Spinlock.acquire_ordered],
    [Gp.synchronize] — load the word once and test bits, so a zero word
    costs them one load and one branch, and a further load happens only
    when a bit is set. Arm and disarm at quiescent points: a section that
    loaded the word before arming finishes unprobed.

    [REPRO_LOCKDEP] and [REPRO_SANITIZE] set their bits at program start
    when [1], [true], [yes] or [on]. [Fault] keeps the fault bit set
    while any point is armed ([REPRO_FAULTS] arms points by name). *)

val lockdep : int
val sanitizer : int
val trace : int
val fault : int

val word : unit -> int
(** One atomic load; [word () land bit <> 0] tests a layer. *)

val set : int -> unit
(** Set the mask's bits, leaving the others. *)

val clear : int -> unit

val with_ : int -> (unit -> 'a) -> 'a
(** [with_ bits f] sets [bits] around [f], then puts exactly those bits
    back as they were — on return and on an exception — so nested calls
    unwind in order. *)

val without : int -> (unit -> 'a) -> 'a
(** [without bits f] clears [bits] around [f], restoring like {!with_}. *)
