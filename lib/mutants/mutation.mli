(** The seeded-bug registry: one table of mutants and controls, run by
    [citrus_tool mutants] and the test suites.

    A checker that never fires is indistinguishable from one that
    cannot. Each {e mutant} row seeds one real bug and requires its
    suite's detector to report it; each {e control} row replays a clean
    configuration and requires the detector to stay silent. Four suites,
    four detectors:

    - [Sanitizer]: the reclamation sanitizer ([Sanitizer.Violation]);
    - [Lockdep]: the lockdep validator ([Lockdep.Violation]);
    - [Chaos]: the serving layer's ledger, breaker and deadline audits
      ([Repro_server.Chaos]);
    - [Model]: the DPOR model checker (a replayable counterexample).

    A bug in the shipped code is a [bug.*] fault point at its site
    ([if Fault.enabled () && Fault.fires p then (* the bug *)]); its
    mutant row names the point, arms it at rate 1.0 in the same
    configuration as the run's delay points, and counts as caught only
    if the detector fired {e and} the point fired. Only the model
    mutants carry no point: each is its own model in
    [Repro_modelcheck.Models]. Controls name no point: a control is
    silent only if no [bug.*] point saw an arrival during it. The
    catalogue, with each row's detector, is in ROBUSTNESS.md, "Mutation
    suite". *)

type suite = Sanitizer | Lockdep | Chaos | Model

val suite_name : suite -> string
(** ["sanitizer"], ["lockdep"], ["chaos"], ["model"]. *)

type kind = Mutant | Control

type params = {
  seed : int;  (** base seed; attempt [i] of a hunt uses [seed + i] *)
  attempts : int;
      (** attempt budget of a scheduling-dependent (sanitizer) hunt; the
          other suites are deterministic and use one attempt *)
}

type outcome = {
  attempts : int;  (** attempts used: the catching one, or the budget *)
  detections : int;
      (** what the detector reported: sanitizer or lockdep violations,
          failed audits, counterexamples; a model control also counts an
          exploration cut short by its state budget. 0 = silent. *)
  detail : string;  (** suite-specific evidence, printed with the verdict *)
}

type row = {
  name : string;  (** controls are named ["control:..."] *)
  suite : suite;
  kind : kind;
  bug : string option;  (** the [bug.*] point a mutant arms, if any *)
  run : params -> outcome;
}

val table : row list
(** Every mutant and control: 17 mutants and 16 controls, grouped by
    suite (sanitizer, lockdep, chaos, model), mutants before controls. *)

val select : ?controls:bool -> suite list -> row list
(** The rows of the given suites, in table order; [[]] selects the
    sanitizer suite alone. [controls] (default [true]) keeps the
    control rows. *)

type result = {
  row : row;
  outcome : outcome;
  fired : int;
      (** mutant: firings of [row.bug] during the run (0 without a
          point); control: arrivals at any armed [bug.*] point *)
  ok : bool;
      (** mutant: caught — [detections > 0] and, with a point, [fired >
          0]; control: silent — [detections = 0] and [fired = 0] *)
}

val run : params -> row -> result
(** Run one row from zeroed fault counters. Leaves every fault point
    disarmed. *)

val pp_result : result -> string
(** The verdict line ([CAUGHT], [ESCAPED], [NOISE] for a detection
    whose bug never ran, [silent] or [TRIPPED]), then the detail. *)

val arm : string list -> (unit -> 'a) -> 'a
(** [arm points f] arms exactly [points] at rate 1.0 (disarming every
    other point), runs [f], and disarms everything on the way out. How
    the deterministic lockdep and chaos rows, and tests of single
    scenarios, switch a bug on. *)
