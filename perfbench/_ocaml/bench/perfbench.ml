(* The repository benchmark: runs one workload for a fixed time, checks
   the program's answers, and prints every metric by name with its unit.
   The last line of standard output is the result object
   {"correct", "attempted", "failed", "metrics"}. See perfbench/README.md. *)

module Workload = Repro_workload.Workload

let usage =
  "perfbench --workload lookup-large|update-small|serve --seed N --seconds S \
   --trace 0|1 [--size full|tiny] [--trace-out FILE]"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* Measured segments per run. Each one sets up its own tree, so [setup_s]
   is a median of at least this many set-ups, and the run's [--seconds]
   is split evenly between them. *)
let segments = 3

type workload =
  | Closed of Closed_loop.spec
  | Serve of Serve_load.spec

let workload name size =
  let tiny = size = "tiny" in
  match name with
  | "lookup-large" ->
      (* 98% contains is the paper's read-mostly mix (Fig. 10, middle). *)
      Closed
        {
          key_range = (if tiny then 1 lsl 12 else 1 lsl 20);
          prefill = (if tiny then 1 lsl 11 else 1 lsl 19);
          mix = Workload.contains_98;
          threads = 2;
          setup_reps = 1;
        }
  | "update-small" ->
      Closed
        {
          key_range = (if tiny then 1 lsl 10 else 1 lsl 13);
          prefill = (if tiny then 1 lsl 9 else 1 lsl 12);
          mix = Workload.contains_50;
          threads = 2;
          setup_reps = 25;
        }
  | "serve" ->
      Serve
        {
          key_range = (if tiny then 1 lsl 12 else 1 lsl 18);
          prefill = (if tiny then 1 lsl 11 else 1 lsl 17);
          rate = (if tiny then 5_000.0 else 20_000.0);
          mix = Workload.mix ~contains:90 ~insert:5 ~delete:5;
        }
  | w -> die "unknown workload %S (%s)" w usage

(* Arming variables change what the program does on every operation;
   results taken with any of them set are not comparable. *)
let refuse_armed_environment () =
  let armed =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv -> String.length kv > 6 && String.sub kv 0 6 = "REPRO_")
  in
  if armed <> [] then
    die "refusing to run with program arming variables set: %s"
      (String.concat " " armed)

let config_line name =
  let b v = if v then "true" else "false" in
  Printf.printf
    "{\"config\":{\"workload\":%S,\"structure\":%S,\"rcu\":%S,\"call_rcu\":%s,\"metrics\":%s,\"sanitizer\":%s,\"lockdep\":%s,\"faults\":%s,\"ocaml\":%S,\"nproc\":%d,\"segments\":%d}}\n"
    name Repro_dict.Dict.Citrus_epoch.name Repro_rcu.Epoch_rcu.name
    (b (Repro_rcu.Reclaimer.call_rcu_enabled ()))
    (b (Repro_sync.Metrics.enabled ()))
    (b (Repro_sanitizer.Sanitizer.enabled ()))
    (b (Repro_lockdep.Lockdep.enabled ()))
    (b (Repro_fault.Fault.enabled ()))
    Sys.ocaml_version
    (Domain.recommended_domain_count ())
    segments

(** {2 Aggregation helpers} *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let div a b = if b = 0.0 then 0.0 else a /. b
let fsum f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l
let isum f l = List.fold_left (fun acc x -> acc + f x) 0 l

(* A program counter over several segments: counts add, maxima take the
   max, means are weighted by the count they were taken over. *)
let counter ms name =
  fsum (fun m -> Option.value ~default:0.0 (List.assoc_opt name m)) ms

let counter_max ms name =
  List.fold_left
    (fun acc m -> Float.max acc (Option.value ~default:0.0 (List.assoc_opt name m)))
    0.0 ms

let weighted_mean ms ~mean ~count =
  div
    (fsum
       (fun m ->
         Option.value ~default:0.0 (List.assoc_opt mean m)
         *. Option.value ~default:0.0 (List.assoc_opt count m))
       ms)
    (counter ms count)

let pct h q = Hist.percentile h q

let words_mb w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.0

(* Program-counter and GC rows shared by both kinds of workload. *)
let layer_common ~ops ~wall ms recorders ~minor ~major pauses =
  let fops = float_of_int ops in
  let words op = fsum (fun r -> r.Probe.words.(op)) recorders in
  let words_n op = float_of_int (isum (fun r -> r.Probe.words_n.(op)) recorders) in
  let pauses_h = Hist.merge (List.map fst pauses) in
  let gps = counter ms "grace_periods" and acq = counter ms "lock_acquires" in
  [
    ("citrus.contains_minor_words", div (words Probe.op_contains) (words_n Probe.op_contains), "words");
    ( "citrus.update_minor_words",
      div
        (words Probe.op_insert +. words Probe.op_delete)
        (words_n Probe.op_insert +. words_n Probe.op_delete),
      "words" );
    ("citrus.restarts_per_kop", 1000.0 *. div (counter ms "restarts") fops, "1/kop");
    ("rcu.read_sections_per_op", div (counter ms "rcu_read_sections") fops, "count");
    ("rcu.grace_periods_per_kop", 1000.0 *. div gps fops, "1/kop");
    ("rcu.gp_mean_ns", weighted_mean ms ~mean:"grace_period_mean_ns" ~count:"grace_periods", "ns");
    ("rcu.gp_max_ns", counter_max ms "grace_period_max_ns", "ns");
    ("rcu.sync_coalesced_frac", div (counter ms "sync_coalesced") gps, "frac");
    ("sync.lock_acquires_per_op", div acq fops, "count");
    ("sync.lock_contended_frac", div (counter ms "lock_contended") acq, "frac");
    ( "sync.lock_wait_mean_ns",
      weighted_mean ms ~mean:"lock_wait_mean_ns" ~count:"lock_contended",
      "ns" );
    ("gc.minor_collections_per_s", div (float_of_int minor) wall, "1/s");
    ("gc.major_cycles", float_of_int major, "count");
    ("gc.pause_p99_ns", pct pauses_h 0.99, "ns");
    ("gc.pause_max_ns", float_of_int (Hist.max pauses_h), "ns");
    ("gc.lost_events", float_of_int (isum snd pauses), "count");
    (* Includes the garbage of the measured windows, so it depends on
       major-GC pacing: 55-121 MB across seeds on update-small. *)
    ("gc.top_heap_mb", words_mb (Gc.quick_stat ()).top_heap_words, "MB");
  ]

let citrus_rows recorders =
  let h op = Hist.merge (List.map (fun r -> Probe.hist r op) recorders) in
  let c = h Probe.op_contains and i = h Probe.op_insert and d = h Probe.op_delete in
  [
    ("citrus.contains_p50_ns", pct c 0.5, "ns");
    ("citrus.contains_p99_ns", pct c 0.99, "ns");
    ("citrus.insert_p50_ns", pct i 0.5, "ns");
    ("citrus.delete_p50_ns", pct d 0.5, "ns");
    ("citrus.delete_p99_ns", pct d 0.99, "ns");
  ]

(** {2 Result assembly} *)

type outcome = {
  e2e : (string * float * string) list;
  layers : (string * float * string) list;
  attempted : int;
  failed : int;
  problems : string list;
  notes : string list;  (** human-readable lines printed before the result *)
}

(* The end-to-end rows, each the median over the full windows of the
   untraced segments (see [Hist.Windows]). *)
let window_rows windows =
  let med f = median (List.map f windows) in
  let window_s = float_of_int !Probe.window_ns /. 1e9 in
  [
    ( "throughput_ops_s",
      med (fun (c, w) -> float_of_int (Hist.count c + Hist.count w) /. window_s),
      "1/s" );
    ("contains_p50_ns", med (fun (c, _) -> pct c 0.5), "ns");
    ("write_p50_ns", med (fun (_, w) -> pct w 0.5), "ns");
  ]

(* The tail percentiles, measured like the end-to-end rows but reported
   per layer. On [serve] host scheduling stalls of a few ms decide them:
   between identical runs p99 moved by 2-4x, and during one 45 s stretch
   of host contention p90 read 10x its usual value. No bound could hold
   them. *)
let tail_rows windows =
  let med f = median (List.map f windows) in
  [
    ("workload.contains_p90_ns", med (fun (c, _) -> pct c 0.9), "ns");
    ("workload.contains_p99_ns", med (fun (c, _) -> pct c 0.99), "ns");
    ("workload.write_p90_ns", med (fun (_, w) -> pct w 0.9), "ns");
    ("workload.write_p99_ns", med (fun (_, w) -> pct w 0.99), "ns");
  ]

let sample_note windows =
  let counts f = List.map (fun cw -> Hist.count (f cw)) windows in
  let lo l = List.fold_left min max_int l in
  Printf.sprintf
    "samples: %d windows of %.3f s; contains %d (fewest in a window %d), \
     writes %d (fewest in a window %d)"
    (List.length windows)
    (float_of_int !Probe.window_ns /. 1e9)
    (List.fold_left ( + ) 0 (counts fst))
    (lo (counts fst))
    (List.fold_left ( + ) 0 (counts snd))
    (lo (counts snd))

(* Every per-layer metric is reported on every workload; the open-loop
   and server rows read 0 on the closed loops, which never call the
   router. *)
let open_loop_only =
  [
    ("workload.gen_lag_p99_ns", "ns");
    ("workload.gen_lag_max_ns", "ns");
    ("server.read_call_p50_ns", "ns");
    ("server.read_call_p99_ns", "ns");
    ("server.write_call_p50_ns", "ns");
    ("server.write_call_p99_ns", "ns");
    ("server.queue_wait_mean_ns", "ns");
    ("server.queue_wait_max_ns", "ns");
    ("server.apply_p50_ns", "ns");
    ("server.apply_p99_ns", "ns");
    ("server.ack_self_p50_ns", "ns");
    ("server.queue_max_depth", "count");
    ("server.rejects", "count");
    ("server.breaker_trips", "count");
  ]

let closed_outcome (segs : Closed_loop.segment list) =
  let untraced = List.filter (fun s -> not s.Closed_loop.traced) segs in
  let traced = List.filter (fun s -> s.Closed_loop.traced) segs in
  let thr l =
    div (float_of_int (isum (fun s -> s.Closed_loop.ops) l)) (fsum (fun s -> s.Closed_loop.wall) l)
  in
  let windows l = List.concat_map (fun s -> s.Closed_loop.windows) l in
  let windows_u = windows untraced in
  let merged f l = Hist.merge (List.map f (windows l)) in
  let attempted = isum (fun s -> s.Closed_loop.ops) segs in
  let problems = List.concat_map (fun s -> s.Closed_loop.problems) segs in
  let e2e =
    [
      ("setup_s", median (List.concat_map (fun s -> s.Closed_loop.setup_s) segs), "s");
    ]
    @ window_rows windows_u
  in
  let layers =
    if traced = [] then []
    else begin
      let recs = List.concat_map (fun s -> s.Closed_loop.recorders) traced in
      let ops = isum (fun s -> s.Closed_loop.ops) traced in
      let self =
        isum (fun r -> r.Probe.last - r.Probe.first - r.Probe.call_ns) recs
      in
      let all_u = Hist.merge [ merged fst untraced; merged snd untraced ] in
      citrus_rows recs
      @ tail_rows windows_u
      @ layer_common ~ops
          ~wall:(fsum (fun s -> s.Closed_loop.wall) traced)
          (List.map (fun s -> s.Closed_loop.metrics) traced)
          recs
          ~minor:(isum (fun s -> s.Closed_loop.minor_collections) traced)
          ~major:(isum (fun s -> s.Closed_loop.major_collections) traced)
          (List.filter_map (fun s -> s.Closed_loop.pauses) traced)
      @ [
          ("workload.driver_self_ns_per_op", div (float_of_int self) (float_of_int ops), "ns");
          ("workload.tail_p99_ns", pct all_u 0.99, "ns");
          ("workload.tail_p999_ns", pct all_u 0.999, "ns");
          ("trace.overhead_frac", 1.0 -. div (thr traced) (thr untraced), "frac");
          ( "trace.write_p50_accounted_frac",
            div (pct (merged snd traced) 0.5) (pct (merged snd untraced) 0.5),
            "frac" );
        ]
      @ List.map (fun (n, u) -> (n, 0.0, u)) open_loop_only
    end
  in
  {
    e2e;
    layers;
    attempted;
    failed = 0;
    problems;
    notes = [ sample_note windows_u ];
  }

(* The traced write requests whose latency ranks between the 45th and 55th
   percentile, and the mean of each span's self time over them: gen lag,
   router call minus the apply inside it, and the apply. The three add up
   to the band's mean latency by construction; the interesting part is
   how it splits. *)
let median_band (log : Serve_load.write list) =
  let a = Array.of_list log in
  Array.sort (fun x y -> compare x.Serve_load.lat y.Serve_load.lat) a;
  let n = Array.length a in
  let lo = n * 45 / 100 and hi = max (n * 55 / 100) ((n * 45 / 100) + 1) in
  let band = Array.sub a lo (min n hi - lo) in
  let mean f =
    div (float_of_int (Array.fold_left (fun acc w -> acc + f w) 0 band))
      (float_of_int (Array.length band))
  in
  if n = 0 then (0.0, 0.0, 0.0)
  else
    ( mean (fun w -> w.Serve_load.lag),
      mean (fun w -> w.call - w.apply),
      mean (fun w -> w.apply) )

let serve_outcome (segs : Serve_load.segment list) =
  let untraced = List.filter (fun s -> not s.Serve_load.traced) segs in
  let traced = List.filter (fun s -> s.Serve_load.traced) segs in
  let merge f l = Hist.merge (List.map f l) in
  let contains_u = merge (fun s -> s.Serve_load.contains) untraced in
  let writes_u = merge (fun s -> s.Serve_load.writes) untraced in
  let windows_u = List.concat_map (fun s -> s.Serve_load.windows) untraced in
  let attempted = isum (fun s -> s.Serve_load.issued) segs in
  let failed =
    isum (fun s -> s.Serve_load.not_completed + s.Serve_load.oracle_failures) segs
  in
  let problems = List.concat_map (fun s -> s.Serve_load.problems) segs in
  let e2e =
    [
      ("setup_s", median (List.concat_map (fun s -> s.Serve_load.setup_s) segs), "s");
    ]
    @ window_rows windows_u
  in
  let layers, notes =
    if traced = [] then ([], [])
    else begin
      let h f = merge f traced in
      let ms = List.map (fun s -> s.Serve_load.metrics) traced in
      let recs = List.concat_map (fun s -> s.Serve_load.recorders) traced in
      let ops = isum (fun s -> s.Serve_load.completed) traced in
      let queue_wait = weighted_mean ms ~mean:"mod_queue_wait_mean_ns" ~count:"mod_drained" in
      let all_u = Hist.merge [ contains_u; writes_u ] in
      let lag, call_self, apply =
        median_band (List.concat_map (fun s -> s.Serve_load.write_log) traced)
      in
      let contains_t = h (fun s -> s.Serve_load.contains) in
      let layers =
        citrus_rows recs
        @ tail_rows windows_u
        @ layer_common ~ops
            ~wall:(fsum (fun s -> s.Serve_load.wall) traced)
            ms recs
            ~minor:(isum (fun s -> s.Serve_load.minor_collections) traced)
            ~major:(isum (fun s -> s.Serve_load.major_collections) traced)
            (List.filter_map (fun s -> s.Serve_load.pauses) traced)
        @ [
            ("workload.driver_self_ns_per_op", 0.0, "ns");
            ("workload.gen_lag_p99_ns", pct (h (fun s -> s.Serve_load.gen_lag)) 0.99, "ns");
            ( "workload.gen_lag_max_ns",
              float_of_int (Hist.max (h (fun s -> s.Serve_load.gen_lag))),
              "ns" );
            ("server.read_call_p50_ns", pct (h (fun s -> s.Serve_load.read_call)) 0.5, "ns");
            ("server.read_call_p99_ns", pct (h (fun s -> s.Serve_load.read_call)) 0.99, "ns");
            ("server.write_call_p50_ns", pct (h (fun s -> s.Serve_load.write_call)) 0.5, "ns");
            ("server.write_call_p99_ns", pct (h (fun s -> s.Serve_load.write_call)) 0.99, "ns");
            ("server.queue_wait_mean_ns", queue_wait, "ns");
            ("server.queue_wait_max_ns", counter_max ms "mod_queue_wait_max_ns", "ns");
            ("server.apply_p50_ns", pct (h (fun s -> s.Serve_load.apply)) 0.5, "ns");
            ("server.apply_p99_ns", pct (h (fun s -> s.Serve_load.apply)) 0.99, "ns");
            ( "server.ack_self_p50_ns",
              pct (h (fun s -> s.Serve_load.call_self)) 0.5 -. queue_wait,
              "ns" );
            ( "server.queue_max_depth",
              float_of_int
                (List.fold_left (fun m s -> max m s.Serve_load.queue_max_depth) 0 traced),
              "count" );
            ("server.rejects", float_of_int (isum (fun s -> s.Serve_load.rejects) traced), "count");
            ( "server.breaker_trips",
              float_of_int (isum (fun s -> s.Serve_load.breaker_trips) traced),
              "count" );
            ("workload.tail_p99_ns", pct all_u 0.99, "ns");
            ("workload.tail_p999_ns", pct all_u 0.999, "ns");
            (* The offered rate pins serve's throughput, so tracing cost
               shows in read latency instead. *)
            ( "trace.overhead_frac",
              div (pct contains_t 0.5) (pct contains_u 0.5) -. 1.0,
              "frac" );
            ( "trace.write_p50_accounted_frac",
              div (lag +. call_self +. apply) (pct writes_u 0.5),
              "frac" );
          ]
      in
      ( layers,
        [
          Printf.sprintf
            "median write band (traced): gen lag %.0f ns + router call self \
             %.0f ns (queue wait mean %.0f ns) + apply %.0f ns = %.0f ns; \
             untraced write p50 %.0f ns"
            lag call_self queue_wait apply
            (lag +. call_self +. apply)
            (pct writes_u 0.5);
        ] )
    end
  in
  {
    e2e;
    layers;
    attempted;
    failed;
    problems;
    notes = sample_note windows_u :: notes;
  }

(** {2 Output} *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed rows =
  let metric (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " (List.map metric rows))

let write_spans path ~append bufs =
  let oc =
    open_out_gen
      ((if append then [ Open_append ] else [ Open_trunc ]) @ [ Open_creat; Open_wronly ])
      0o644 path
  in
  List.iter (fun (domain, b) -> Probe.Spans.write oc ~domain b) bufs;
  close_out oc

let () =
  let workload_name = ref "" and seed = ref (-1) and seconds = ref 0.0 in
  let trace = ref (-1) and size = ref "full" and trace_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload_name, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end or traced per-layer run");
      ("--size", Arg.Set_string size, "full|tiny input sizes (tiny: smoke test)");
      ("--trace-out", Arg.Set_string trace_out, "FILE write the span log here");
    ]
    (fun a -> die "unexpected argument %S (%s)" a usage)
    usage;
  if !seed < 0 then die "--seed must be a non-negative integer";
  if !seconds <= 0.0 then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !size <> "full" && !size <> "tiny" then die "--size must be full or tiny";
  let wl = workload !workload_name !size in
  refuse_armed_environment ();
  config_line !workload_name;
  let traced = !trace = 1 in
  (* A traced run gives each segment an untraced and a traced half, so it
     measures for [--seconds] in all, like an untraced run. *)
  let per_segment =
    !seconds /. float_of_int (if traced then 2 * segments else segments)
  in
  Probe.window_ns := min 500_000_000 (int_of_float (per_segment *. 1e9 /. 4.0));
  let seeds = List.init segments (fun i -> (!seed * 1000) + i) in
  let first_write = ref true in
  let dump bufs =
    if !trace_out <> "" then begin
      write_spans !trace_out ~append:(not !first_write) bufs;
      first_write := false
    end
  in
  let outcome =
    match wl with
    | Closed spec ->
        closed_outcome
          (List.concat_map
             (fun seed ->
               let segs = Closed_loop.run spec ~seed ~seconds:per_segment ~traced in
               List.iter
                 (fun s ->
                   if s.Closed_loop.traced then dump (Probe.span_bufs s.recorders))
                 segs;
               Gc.compact ();
               segs)
             seeds)
    | Serve spec ->
        serve_outcome
          (List.concat_map
             (fun seed ->
               let segs = Serve_load.run spec ~seed ~seconds:per_segment ~traced in
               List.iter
                 (fun s ->
                   if s.Serve_load.traced then dump [ (s.client_domain, s.spans) ])
                 segs;
               segs)
             seeds)
  in
  let attempted = max 1 outcome.attempted in
  let ok_frac = 1.0 -. div (float_of_int outcome.failed) (float_of_int attempted) in
  let e2e =
    outcome.e2e
    @ [ ("ok_frac", ok_frac, "frac"); ("peak_heap_mb", words_mb !Probe.setup_top_heap_words, "MB") ]
  in
  List.iter print_endline outcome.notes;
  List.iter (fun p -> print_endline ("ORACLE FAILURE: " ^ p)) outcome.problems;
  List.iter
    (fun (n, v, u) -> Printf.printf "%-36s %18.3f %s\n" n v u)
    (if traced then outcome.layers else e2e);
  print_result ~correct:(outcome.problems = []) ~attempted ~failed:outcome.failed
    (if traced then outcome.layers else e2e)
