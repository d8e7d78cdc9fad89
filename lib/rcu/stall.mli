(** Grace-period stall detection (the RCU CPU stall warning, in user
    space).

    [synchronize] only terminates if every pre-existing reader leaves its
    read-side critical section — one stuck reader stalls every updater,
    and without a watchdog that is an undiagnosable hang. When armed, the
    one reader wait of the grace-period driver ({!Gp}, shared by all
    three RCU flavours) checks elapsed time against a threshold and, on
    exceeding it, emits a structured {!report} naming the blocking reader
    slot: through the configured {!set_handler} callback
    (default: stderr), a [Stall] event in [Repro_sync.Trace], and the
    [rcu_stalls] metric in [Repro_sync.Metrics].

    Two modes: [Warn] keeps waiting and re-emits one report per threshold
    window; [Fail] raises {!Stalled} from [synchronize] so a workload can
    abort cleanly instead of hanging CI. In [Fail] mode the aborted
    [synchronize] provides {e no} grace-period guarantee — callers must
    treat the update as incomplete (rcutorture's writers stop the run).

    Disarmed (the default, and the benchmark configuration), the cost is
    one atomic load per reader wait, read once into a local: the wait is
    one loop, with one branch on that local per backoff step of a slot
    that blocks. Arm from code ({!arm}), the CLI
    ([citrus_tool torture --stall-ms N]) or the environment
    ([REPRO_STALL_MS=N], [REPRO_STALL_MODE=warn|fail]).

    Report format and reproduction recipes: ROBUSTNESS.md. *)

type mode = Warn | Fail

type report = {
  flavour : string;  (** RCU implementation name *)
  slot : int;  (** registry index of the blocking reader slot *)
  nesting : int;
      (** reader nesting as encoded by the flavour: urcu's nesting count,
          qsbr/epoch's in-critical-section flag (0/1) *)
  phase : int;
      (** the phase the reader is stuck in: urcu's phase bit, qsbr's
          grace-period snapshot, epoch's section count *)
  elapsed_ns : int;  (** time since this [synchronize] began *)
  grace_periods : int;  (** grace periods completed before the stall *)
  trace_tail : Repro_sync.Trace.event list;
      (** newest trace events when tracing is on (else []) *)
}

exception Stalled of report
(** Raised by [synchronize] in [Fail] mode. Re-exported as
    [Rcu.Stalled]. *)

val arm : ?mode:mode -> threshold_ns:int -> unit -> unit
(** Arm the watchdog (default mode [Warn]).
    @raise Invalid_argument if [threshold_ns <= 0]. *)

val disarm : unit -> unit

val armed : unit -> bool
val threshold_ns : unit -> int
val current_mode : unit -> mode

val set_handler : (report -> unit) -> unit
(** Replace the report sink (tests count reports; the default prints to
    stderr). The handler runs on the stalled updater's domain, inside
    [synchronize]. *)

val reset_handler : unit -> unit
val default_handler : report -> unit
val to_string : report -> string

(** {2 For the RCU implementations} *)

val report :
  flavour:string ->
  slot:int ->
  nesting:int ->
  phase:int ->
  elapsed_ns:int ->
  grace_periods:int ->
  report
(** Build a report, capturing the trace tail if tracing is enabled. *)

val note : report -> unit
(** Emit: bump [rcu_stalls], record the [Stall] trace event, invoke the
    handler, and raise {!Stalled} in [Fail] mode. Also stamps the
    process-global stall-recency clock read by {!recently_stalled}. *)

(** {2 Stall recency}

    Process-global, watchdog-wide signals for admission control: the
    serving layer treats a recent grace-period stall as rising
    reclamation pressure even before the retired bags fill
    (SERVING.md, "Reclamation-aware admission"). *)

val last_stall_ns : unit -> int
(** Monotonic timestamp of the most recent {!note} (0 if none ever). *)

val stall_count : unit -> int
(** Total stall reports noted since process start (unlike the
    [rcu_stalls] metric, never reset). *)

val recently_stalled : within_ns:int -> bool
(** True when a stall was noted within the last [within_ns]
    nanoseconds. *)
