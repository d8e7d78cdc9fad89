(** Named, seeded, deterministic fault-injection points.

    The repository's robustness methodology (ROBUSTNESS.md) needs a way to
    {e provoke} the schedules that break RCU-based algorithms — readers
    stuck across a grace-period flip, writers delayed inside the Citrus
    delete window, deferred frees bunching up — without perturbing runs
    that don't ask for them. Each critical window in the stack declares a
    {e point}; arming a point by name makes a deterministic fraction of the
    arrivals at that window execute a fault action (a [Domain.cpu_relax]
    yield storm or a busy-wait delay).

    Cost when nothing is armed: one atomic load and a branch per call
    site, the same shape as [Metrics.enabled]. Whether a given arrival
    fires is a pure function of (seed, point, domain, arrival number), so
    failing schedules replay from their seed.

    Configure from code ({!configure}), the CLI
    ([citrus_tool torture --fault POINT=RATE]) or the environment
    ([REPRO_FAULTS=POINT=RATE,... ] and [REPRO_FAULT_SEED=N]).

    The point catalogue (who injects where) is documented in
    ROBUSTNESS.md. *)

type action =
  | Yield of int  (** a storm of [n] [Domain.cpu_relax] calls *)
  | Delay_ns of int  (** busy-wait for [n] nanoseconds *)
  | Raise
      (** raise {!Injected} out of the window, to exercise exception paths
          through locks, [synchronize] and read-side sections *)

type t
(** A registered injection point. *)

exception Injected of string
(** Raised by the [Raise] action, carrying the firing point's name.
    Deliberately {e not} caught anywhere in the stack: the test arming a
    [raise] fault asserts that the subsystem under it unwinds cleanly
    (locks released, read sections exited). *)

exception Unknown_point of string
(** Raised by {!set} (and hence {!configure}) for a name no subsystem
    registered. *)

val register : string -> t
(** Get-or-create the point called [name]. New points start disarmed with
    a default [Yield 256] action. Subsystems call this at module
    initialization; tests may register ad-hoc points. *)

val find : string -> t option
val name : t -> string

val points : unit -> t list
(** All registered points, registration order. *)

val enabled : unit -> bool
(** [true] iff at least one point is armed. Call sites gate on this so the
    disarmed cost is one atomic load and a branch. *)

val inject : t -> unit
(** Hot-path entry: draw the point's deterministic coin and, on fire,
    perform its action. Call as [if Fault.enabled () then Fault.inject p]. *)

val fires : t -> bool
(** The coin alone, for call sites that implement the fault themselves
    (e.g. the reclaimer's extra grace period at "defer.flush"). Counts a
    hit, and a fire when true. Every seeded bug is such a site: a
    [bug.*] point guards one deliberate defect as
    [if Fault.enabled () && Fault.fires p then (* the bug *)], and the
    mutant table arms it at rate 1.0. *)

val set : ?action:action -> string -> rate:float -> unit
(** Arm point [name] to fire on [rate] of arrivals ([0] disarms; [1] fires
    always), optionally replacing its action.
    @raise Unknown_point if no such point is registered.
    @raise Invalid_argument if [rate] is outside [0, 1]. *)

val configure : ?seed:int64 -> (string * float) list -> unit
(** Disarm everything, optionally reseed, then arm each named point at its
    rate. @raise Unknown_point on the first unknown name. *)

val disable_all : unit -> unit

val set_seed : int64 -> unit
(** Reset the global seed and every point's per-domain RNG streams. *)

val seed : unit -> int64

val rate : t -> float
(** Currently configured fire probability. *)

val stats : unit -> (string * int * int) list
(** [(name, hits, fired)] per point: arrivals seen while armed, and how
    many actually fired. *)

val reset_counters : unit -> unit

val parse_spec : string -> (string * float * action option, string) result
(** Parse a CLI/env spec ["POINT=RATE"], optionally suffixed with
    [":yield=N"], [":delay_ns=N"] or [":raise"]. Returns a descriptive
    error message for malformed specs; does not check the point exists. *)
