(** Per-operation latency measurement with log-linear histograms
    (HdrHistogram-style: power-of-two major buckets, 16 linear sub-buckets,
    ≤ ~0.7% relative error). Complements throughput numbers: a structure
    whose synchronize_rcu stalls show up in p99 long before they dent the
    mean. *)

type histogram

val histogram : unit -> histogram
val record : histogram -> int -> unit
(** [record h ns] adds one sample (negative samples count as 0). *)

val merge : histogram list -> histogram
val count : histogram -> int

type summary = {
  count : int;
  mean_ns : float;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
  max_ns : float;
}

val summarize : histogram -> summary
val percentile : histogram -> float -> float
(** [percentile h 0.99] is the latency (ns) at or below which 99% of the
    samples fall, never above the largest sample; 0 for an empty
    histogram. *)

val pp_summary : Format.formatter -> summary -> unit
