(** Multi-domain throughput measurement, reproducing the paper's
    methodology: pre-fill to half the key range, run every thread for a
    fixed wall-clock duration executing randomly chosen operations on
    randomly chosen keys, report overall throughput; repeat and take the
    arithmetic average.

    Every run also captures what explains its throughput: per-operation
    latency histograms (1 op in 16 timed) and a {!Repro_sync.Metrics}
    snapshot covering the measured interval — grace periods paid and
    their durations, lock contention, traversal restarts. See
    OBSERVABILITY.md. *)

type result = {
  name : string;  (** dictionary name *)
  threads : int;
  total_ops : int;
  contains_ops : int;
  insert_ops : int;
  delete_ops : int;
  wall : float;  (** measured wall-clock seconds *)
  throughput : float;  (** operations per second *)
  final_size : int;
  latency : (Workload.op * Latency.histogram) list;
      (** sampled per-operation latency (1 op in 16 timed); omits
          operation types that never ran *)
  metrics : (string * float) list;
      (** global serialization-metrics snapshot for the measured interval
          (catalogue in OBSERVABILITY.md) *)
}

val run : (module Repro_dict.Dict.DICT) -> Workload.config -> result
(** One timed execution. The dictionary's invariant checker runs after the
    clock stops; violations raise.
    @raise Repro_sync.Registry.Full if the structure cannot register all
      [cfg.threads] workers — raised on the calling thread after every
      spawned domain has been joined, so the process is left clean for the
      CLI to report the error.
    The run resets the global {!Repro_sync.Metrics} after the prefill and
    snapshots them after the workers join, so [metrics] covers the
    measured interval only. *)

val run_avg :
  ?repeats:int ->
  (module Repro_dict.Dict.DICT) ->
  Workload.config ->
  result
(** Arithmetic average over [repeats] runs (paper: 5), reseeding each run
    deterministically from the config seed. Default 1. Latency histograms
    are merged across the repeats; metric values are averaged per key, so
    they keep their per-run meaning. *)
