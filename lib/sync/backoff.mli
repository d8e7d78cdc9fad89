(** Escalating backoff for spin loops.

    On this reproduction's single-core container a spinning domain can starve
    the domain it is waiting for, so every spin loop in the repository must go
    through this module: it starts with cheap [Domain.cpu_relax] pauses and
    escalates to [Unix.sleepf 0.] and finally to short sleeps. [sleepf 0.]
    is not a bare timeslice yield: on Linux it sleeps out the thread's
    timer slack (50 µs by default; 58 µs measured on the 2-vCPU reference
    machine, ROADMAP.md). *)

type t

val create : ?max_spins:int -> unit -> t
(** [create ()] returns a fresh backoff state. [max_spins] bounds the number
    of pure [cpu_relax] rounds before the state escalates to yielding
    (default 64). *)

val once : t -> unit
(** Perform one backoff step and escalate the internal state. *)

val reset : t -> unit
(** Return to the cheapest backoff level (call after making progress). *)

val spins : t -> int
(** Total number of backoff steps performed since creation or [reset]
    (useful for contention statistics). *)
