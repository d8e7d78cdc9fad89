(** Schema-versioned JSON benchmark reports.

    Converts runner results into the [BENCH_*.json] trajectory
    format documented in OBSERVABILITY.md: a report is a list of
    experiments, each a list of data points, each carrying the workload
    configuration, throughput, sampled latency percentiles, and the
    serialization-metrics snapshot of its run. Every report goes through
    the one envelope {!report} and the one writer {!write}; the producers
    are [bench/main.exe --json] (every command: the figure sweeps, [gp],
    [serve] and [callrcu]) and [citrus_tool stats/serve --json]. *)

val schema_version : int
(** Current report schema version (bump on incompatible change). *)

val point_json : Workload.config -> Runner.result -> Repro_obs.Json.t
(** One data point of a run ({!Runner.run} or {!Runner.run_avg}) under
    the configuration it used: structure, threads, config, throughput, op
    counts, [latency_ns] summaries per operation, and [metrics]. *)

val op_name : Workload.op -> string
(** Canonical report field name per operation
    (["contains"]/["insert"]/["delete"]). *)

val summary_json : Latency.summary -> Repro_obs.Json.t
(** A latency summary as the report's [latency_ns] object shape
    ([count], [mean_ns], [p50_ns] … [p999_ns], [max_ns]) — shared by
    every report producer so per-op percentiles parse uniformly
    (the serving reports of [Repro_server.Serve] use it too). *)

val report :
  ?meta:(string * Repro_obs.Json.t) list ->
  (string * Repro_obs.Json.t list) list ->
  Repro_obs.Json.t
(** The report envelope: schema version, generator
    (["citrus-repro bench"]), timestamp, any [meta] fields (e.g. the
    benchmark scale), then one experiment per [(name, points)] pair, its
    points already rendered. *)

val write : string -> Repro_obs.Json.t -> unit
(** The one writer behind every [--json] flag of both CLIs (the chaos
    and model-checker documents too). Write a document to a file,
    pretty-printed, and print
    ["wrote JSON report: FILE"]. If the file cannot be written, print
    the reason to stderr and exit 1. *)
