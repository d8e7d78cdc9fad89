(** Fixed-capacity thread-slot registry.

    Both RCU implementations, and any structure that keeps per-thread state,
    need a way for a domain to claim a stable slot and for writers to iterate
    over all slots. The registry pre-allocates [capacity] payloads (so
    iteration never races with allocation) and hands out slot indices with a
    lock-free scan. *)

type 'a t

val create : capacity:int -> make:(int -> 'a) -> 'a t
(** [create ~capacity ~make] eagerly builds [capacity] payloads with
    [make i]. Raises [Invalid_argument] if [capacity <= 0]. *)

exception Full
(** Raised by {!acquire} when all slots are taken. *)

val acquire : 'a t -> int
(** Claim a free slot and return its index. @raise Full if none is free. *)

val release : 'a t -> int -> unit
(** Return slot [i] to the free pool. Raises [Invalid_argument] if the slot
    was not held. *)

val get : 'a t -> int -> 'a
(** Payload of slot [i] (valid for any [i < capacity], held or not). *)

val capacity : 'a t -> int

val active : 'a t -> int
(** Number of currently-held slots (racy snapshot; for stats/tests). *)
