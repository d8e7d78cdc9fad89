(* Tests for the workload/throughput harness: mix arithmetic, config
   validation, deterministic op drawing, and short end-to-end runs over a
   couple of real dictionaries (which double as integration smoke tests of
   the benchmark path). *)

module W = Repro_workload.Workload
module Runner = Repro_workload.Runner
module Report = Repro_workload.Report
module Rng = Repro_sync.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let test_mix_validation () =
  checkb "valid" true
    (match W.mix ~contains:50 ~insert:25 ~delete:25 with
    | _ -> true);
  Alcotest.check_raises "sum must be 100"
    (Invalid_argument
       "Workload.mix: percentages must be >= 0 and sum to 100") (fun () ->
      ignore (W.mix ~contains:50 ~insert:25 ~delete:26));
  Alcotest.check_raises "no negatives"
    (Invalid_argument
       "Workload.mix: percentages must be >= 0 and sum to 100") (fun () ->
      ignore (W.mix ~contains:120 ~insert:(-10) ~delete:(-10)))

let test_presets () =
  checki "read_only" 100 W.read_only.contains_pct;
  checki "c98 updates" 1 W.contains_98.insert_pct;
  checki "c50" 25 W.contains_50.delete_pct;
  checki "update_only" 0 W.update_only.contains_pct

let test_pick_distribution () =
  let m = W.mix ~contains:80 ~insert:15 ~delete:5 in
  let rng = Rng.create 5L in
  let c = ref 0 and i = ref 0 and d = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    match W.pick rng m with
    | W.Contains -> incr c
    | W.Insert -> incr i
    | W.Delete -> incr d
  done;
  let near pct count =
    let expected = n * pct / 100 in
    abs (count - expected) < n / 100
  in
  checkb "contains near 80%" true (near 80 !c);
  checkb "insert near 15%" true (near 15 !i);
  checkb "delete near 5%" true (near 5 !d)

let test_zipf_bounds_and_skew () =
  let cfg = W.config ~key_range:1000 ~key_dist:(W.Zipf 0.9) () in
  let rng = Rng.create 17L in
  let gen = W.key_generator cfg rng in
  let counts = Array.make 1000 0 in
  let n = 200_000 in
  for _ = 1 to n do
    let k = gen () in
    checkb "in range" true (k >= 0 && k < 1000);
    counts.(k) <- counts.(k) + 1
  done;
  (* Rank 0 must be dramatically hotter than the uniform share (200). *)
  checkb "head is hot" true (counts.(0) > 20 * (n / 1000));
  (* The top 10 of 1000 ranks carries ~31% of the traffic at theta 0.9
     (zeta(10,.9)/zeta(1000,.9)); uniform would give 1%. *)
  let top10 = Array.fold_left ( + ) 0 (Array.sub counts 0 10) in
  checkb "top-10 dominates" true (top10 > n / 4)

let test_uniform_generator_is_uniform () =
  let uni = W.config ~key_range:100 () in
  let rng = Rng.create 3L in
  let gen = W.key_generator uni rng in
  let counts = Array.make 100 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let k = gen () in
    counts.(k) <- counts.(k) + 1
  done;
  (* Every key within 50% of the mean (1000 expected per key). *)
  Array.iter
    (fun c -> checkb "roughly uniform" true (c > 500 && c < 1500))
    counts

let test_zipf_validation () =
  Alcotest.check_raises "theta >= 1 rejected"
    (Invalid_argument "Workload.config: Zipf theta must be in (0,1)")
    (fun () -> ignore (W.config ~key_dist:(W.Zipf 1.0) ()))

let test_config_validation () =
  Alcotest.check_raises "key_range"
    (Invalid_argument "Workload.config: key_range must be positive") (fun () ->
      ignore (W.config ~key_range:0 ()));
  Alcotest.check_raises "threads"
    (Invalid_argument "Workload.config: threads must be positive") (fun () ->
      ignore (W.config ~threads:0 ()));
  Alcotest.check_raises "prefill"
    (Invalid_argument "Workload.config: prefill_fraction must be in [0,1]")
    (fun () -> ignore (W.config ~prefill_fraction:1.5 ()))

let test_run_end_to_end () =
  let cfg =
    W.config ~key_range:256 ~threads:3 ~duration:0.2 ~seed:7L
      ~role:(W.Uniform W.contains_50) ()
  in
  let r = Runner.run (module Repro_dict.Dict.Citrus_epoch) cfg in
  checks "name" "citrus" r.name;
  checki "threads" 3 r.threads;
  checkb "did work" true (r.total_ops > 0);
  checki "op counts sum" r.total_ops
    (r.contains_ops + r.insert_ops + r.delete_ops);
  checkb "throughput positive" true (r.throughput > 0.0);
  checkb "final size sane" true (r.final_size >= 0 && r.final_size <= 256)

let test_run_single_writer () =
  let cfg =
    W.config ~key_range:256 ~threads:3 ~duration:0.2 ~seed:7L
      ~role:(W.Single_writer W.update_only) ()
  in
  let r = Runner.run (module Repro_dict.Dict.Rb) cfg in
  (* Two of the three threads are pure readers. *)
  checkb "reads dominate" true (r.contains_ops > 0);
  checkb "updates happened" true (r.insert_ops + r.delete_ops > 0)

(* A plain run samples latency for every op type and captures metrics.
   Each worker times its ops 0, 16, 32, ... and runs whole 64-op batches,
   so the sampled total is exactly bounded by the op count. *)
let test_run_sampled_latency_and_metrics () =
  let threads = 2 in
  let cfg =
    W.config ~key_range:128 ~threads ~duration:0.15 ~seed:13L
      ~role:(W.Uniform W.contains_50) ()
  in
  let r = Runner.run (module Repro_dict.Dict.Citrus_epoch) cfg in
  checki "three op types sampled" 3 (List.length r.latency);
  checkb "metrics captured" true (r.metrics <> []);
  List.iter
    (fun (_, h) ->
      let s = Repro_workload.Latency.summarize h in
      checkb "positive samples" true (s.count > 0);
      checkb "ordered percentiles" true
        (s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.p999
       && s.p999 <= s.max_ns))
    r.latency;
  let sampled =
    List.fold_left
      (fun acc (_, h) -> acc + Repro_workload.Latency.count h)
      0 r.latency
  in
  let expected = r.total_ops / 16 in
  if sampled < expected || sampled > expected + threads then
    Alcotest.failf "sampled %d ops of %d, expected %d..%d" sampled
      r.total_ops expected (expected + threads)

let test_run_avg () =
  let cfg =
    W.config ~key_range:128 ~threads:2 ~duration:0.1 ~seed:3L
      ~role:(W.Uniform W.read_only) ()
  in
  let r = Runner.run_avg ~repeats:2 (module Repro_dict.Dict.Bonsai) cfg in
  checkb "averaged throughput" true (r.throughput > 0.0);
  (* 100% contains on a prefilled structure: no updates at all. *)
  checki "no inserts" 0 r.insert_ops;
  checki "no deletes" 0 r.delete_ops

let test_run_every_dictionary_briefly () =
  (* The benchmark path must work for every structure in the registry. *)
  List.iter
    (fun (module D : Repro_dict.Dict.DICT) ->
      let cfg =
        W.config ~key_range:64 ~threads:2 ~duration:0.05 ~seed:11L ()
      in
      let r = Runner.run (module D) cfg in
      if r.total_ops = 0 then Alcotest.failf "%s did no work" D.name)
    Repro_dict.Dict.all

let test_report_rendering () =
  let buf = Buffer.create 256 in
  let out = Format.formatter_of_buffer buf in
  Report.print_table ~out ~title:"demo" ~threads:[ 1; 2 ]
    [
      { Report.label = "citrus"; points = [ (1, 1.0e6); (2, 2.0e6) ] };
      { Report.label = "bonsai"; points = [ (1, 5.0e5) ] };
    ];
  let s = Buffer.contents buf in
  let contains_sub hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  checkb "title present" true (contains_sub s "demo");
  checkb "throughput rendered" true (contains_sub s "2.00M");
  checkb "missing point dash" true (contains_sub s "-")

let test_si_formatting () =
  checks "millions" "2.50M" (Report.si 2.5e6);
  checks "thousands" "3.2k" (Report.si 3_200.0);
  checks "units" "12" (Report.si 12.0);
  checks "billions" "1.20G" (Report.si 1.2e9)

(* --- latency histograms --- *)

module Latency = Repro_workload.Latency

let test_latency_histogram_exact_small () =
  let h = Latency.histogram () in
  List.iter (Latency.record h) [ 3; 3; 3; 7 ];
  checki "count" 4 (Latency.count h);
  Alcotest.check (Alcotest.float 0.01) "p50 exact below 16" 3.0
    (Latency.percentile h 0.5);
  Alcotest.check (Alcotest.float 0.01) "p100 exact below 16" 7.0
    (Latency.percentile h 1.0)

let test_latency_histogram_relative_error () =
  let h = Latency.histogram () in
  (* A single large sample: the bucket midpoint must be within ~6.25%. *)
  Latency.record h 1_000_000;
  let p = Latency.percentile h 0.99 in
  checkb "within bucket error" true
    (Float.abs (p -. 1_000_000.0) /. 1_000_000.0 < 0.0625)

let test_latency_summary_and_merge () =
  let a = Latency.histogram () and b = Latency.histogram () in
  for i = 1 to 1000 do
    Latency.record a i
  done;
  for i = 1001 to 2000 do
    Latency.record b i
  done;
  let m = Latency.merge [ a; b ] in
  let s = Latency.summarize m in
  checki "merged count" 2000 s.Latency.count;
  checkb "p50 near 1000" true (Float.abs (s.Latency.p50 -. 1000.0) < 80.0);
  checkb "p99 near 1980" true (Float.abs (s.Latency.p99 -. 1980.0) < 140.0);
  checkb "mean near 1000.5" true (Float.abs (s.Latency.mean_ns -. 1000.5) < 1.0);
  checkb "max exact" true (s.Latency.max_ns = 2000.0)

let test_latency_empty () =
  let s = Latency.summarize (Latency.histogram ()) in
  checki "count" 0 s.Latency.count;
  checkb "percentile zero" true (s.Latency.p99 = 0.0)

(* A bucket's midpoint lies above a lone sample; percentiles clamp to it. *)
let test_latency_single_sample () =
  let h = Latency.histogram () in
  Latency.record h 1000;
  let s = Latency.summarize h in
  checkb "max exact" true (s.max_ns = 1000.0);
  checkb "p50 clamped to max" true (s.p50 = 1000.0);
  checkb "p99.9 clamped to max" true (s.p999 = 1000.0)

(* [Gc.minor_words] returns an unboxed float, so the measurement itself
   allocates nothing. *)
let test_latency_record_allocates_nothing () =
  let h = Latency.histogram () in
  let w0 = Gc.minor_words () in
  for i = 1 to 100_000 do
    Latency.record h i
  done;
  let w = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "minor words" 0.0 w

let test_latency_negative_clamped () =
  let h = Latency.histogram () in
  Latency.record h (-5);
  checki "count" 1 (Latency.count h);
  checkb "clamped to zero" true (Latency.percentile h 1.0 = 0.0)

let arb_samples =
  QCheck.make
    ~print:(fun l -> String.concat "," (List.map string_of_int l))
    QCheck.Gen.(list_size (int_range 1 500) (int_bound 5_000_000))

let prop_latency_percentiles_monotone =
  QCheck.Test.make ~name:"percentiles are monotone in p" ~count:200
    arb_samples (fun samples ->
      let h = Latency.histogram () in
      List.iter (Latency.record h) samples;
      let ps = [ 0.1; 0.5; 0.9; 0.99; 1.0 ] in
      let vals = List.map (Latency.percentile h) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | [ _ ] | [] -> true
      in
      let s = Latency.summarize h in
      mono vals && s.p999 <= s.max_ns)

let prop_latency_bounded_error =
  QCheck.Test.make ~name:"p50 within bucket error of exact median" ~count:200
    arb_samples (fun samples ->
      let h = Latency.histogram () in
      List.iter (Latency.record h) samples;
      let sorted = List.sort compare samples in
      let n = List.length sorted in
      let exact = float_of_int (List.nth sorted ((n - 1) / 2)) in
      let approx = Latency.percentile h 0.5 in
      (* log-linear buckets with 16 sub-buckets: <= 1/16 relative error,
         plus one for the integer buckets near zero. *)
      Float.abs (approx -. exact) <= (exact /. 16.0) +. 1.0)

let prop_latency_merge_is_concat =
  QCheck.Test.make ~name:"merge equals recording the concatenation"
    ~count:100
    QCheck.(pair arb_samples arb_samples)
    (fun (xs, ys) ->
      let a = Latency.histogram () and b = Latency.histogram () in
      List.iter (Latency.record a) xs;
      List.iter (Latency.record b) ys;
      let m = Latency.merge [ a; b ] in
      let c = Latency.histogram () in
      List.iter (Latency.record c) (xs @ ys);
      Latency.count m = Latency.count c
      && Latency.percentile m 0.5 = Latency.percentile c 0.5
      && Latency.percentile m 0.99 = Latency.percentile c 0.99
      && (Latency.summarize m).Latency.max_ns
         = (Latency.summarize c).Latency.max_ns)

let () =
  Alcotest.run "workload"
    [
      ( "mix",
        [
          Alcotest.test_case "validation" `Quick test_mix_validation;
          Alcotest.test_case "presets" `Quick test_presets;
          Alcotest.test_case "pick distribution" `Quick test_pick_distribution;
        ] );
      ( "config",
        [ Alcotest.test_case "validation" `Quick test_config_validation ] );
      ( "key distribution",
        [
          Alcotest.test_case "zipf bounds and skew" `Quick
            test_zipf_bounds_and_skew;
          Alcotest.test_case "uniform is uniform" `Quick
            test_uniform_generator_is_uniform;
          Alcotest.test_case "zipf validation" `Quick test_zipf_validation;
        ] );
      ( "runner",
        [
          Alcotest.test_case "end to end" `Quick test_run_end_to_end;
          Alcotest.test_case "single writer" `Quick test_run_single_writer;
          Alcotest.test_case "sampled latency and metrics" `Quick
            test_run_sampled_latency_and_metrics;
          Alcotest.test_case "averaging" `Quick test_run_avg;
          Alcotest.test_case "every dictionary" `Quick
            test_run_every_dictionary_briefly;
        ] );
      ( "report",
        [
          Alcotest.test_case "rendering" `Quick test_report_rendering;
          Alcotest.test_case "si units" `Quick test_si_formatting;
        ] );
      ( "latency",
        [
          Alcotest.test_case "exact small buckets" `Quick
            test_latency_histogram_exact_small;
          Alcotest.test_case "bounded relative error" `Quick
            test_latency_histogram_relative_error;
          Alcotest.test_case "summary and merge" `Quick
            test_latency_summary_and_merge;
          Alcotest.test_case "empty histogram" `Quick test_latency_empty;
          Alcotest.test_case "negative clamped" `Quick
            test_latency_negative_clamped;
          Alcotest.test_case "single sample" `Quick test_latency_single_sample;
          Alcotest.test_case "record allocates nothing" `Quick
            test_latency_record_allocates_nothing;
          QCheck_alcotest.to_alcotest prop_latency_percentiles_monotone;
          QCheck_alcotest.to_alcotest prop_latency_bounded_error;
          QCheck_alcotest.to_alcotest prop_latency_merge_is_concat;
        ] );
    ]
