(* Tests for the observability layer: striped counters and timers under
   concurrency, the trace ring buffer's bounded/non-blocking behaviour, the
   JSON encoder/parser round-trip, and the exactly-once grace-period
   accounting across all three RCU flavours. *)

module Stats = Repro_sync.Stats
module Metrics = Repro_sync.Metrics
module Trace = Repro_sync.Trace
module Arm = Repro_fault.Arm
module Json = Repro_obs.Json
module W = Repro_workload.Workload
module Runner = Repro_workload.Runner
module Json_report = Repro_workload.Json_report

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- striped counters under concurrency --- *)

let test_counter_monotone_concurrent () =
  let c = Stats.create "test" in
  let n_domains = 4 and per_domain = 50_000 in
  let writers_done = Atomic.make 0 in
  let writers =
    List.init n_domains (fun i ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Stats.incr c i
            done;
            Atomic.incr writers_done))
  in
  (* A concurrent reader must only ever see the sum grow: stripe reads are
     racy but each stripe is monotone. *)
  let monotone = ref true in
  let last = ref 0 in
  while Atomic.get writers_done < n_domains do
    let v = Stats.read c in
    if v < !last then monotone := false;
    last := v
  done;
  List.iter Domain.join writers;
  checkb "reads never decreased" true !monotone;
  checki "no increment lost" (n_domains * per_domain) (Stats.read c)

let test_timer_concurrent () =
  let t = Stats.Timer.create "test" in
  let n_domains = 4 and per_domain = 10_000 in
  let sample = 37 in
  let workers =
    List.init n_domains (fun i ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Stats.Timer.record t i sample
            done))
  in
  List.iter Domain.join workers;
  checki "sample count" (n_domains * per_domain) (Stats.Timer.count t);
  checki "sample sum" (n_domains * per_domain * sample)
    (Stats.Timer.total_ns t);
  checki "max" sample (Stats.Timer.max_ns t);
  Alcotest.check (Alcotest.float 0.001) "mean" (float_of_int sample)
    (Stats.Timer.mean_ns t);
  Stats.Timer.reset t;
  checki "count after reset" 0 (Stats.Timer.count t);
  checki "max after reset" 0 (Stats.Timer.max_ns t)

let test_timer_max_concurrent () =
  let t = Stats.Timer.create ~stripes:1 "test" in
  (* All domains contend on one stripe's max cell: the CAS publication must
     keep the true maximum. *)
  let workers =
    List.init 4 (fun i ->
        Domain.spawn (fun () ->
            for v = 1 to 5_000 do
              Stats.Timer.record t 0 ((v * 4) + i)
            done))
  in
  List.iter Domain.join workers;
  checki "true maximum survives racing CAS" ((5_000 * 4) + 3)
    (Stats.Timer.max_ns t)

(* --- trace ring buffer --- *)

let test_trace_disabled_records_nothing () =
  Arm.without Arm.trace @@ fun () ->
  Trace.configure ~capacity:64;
  Trace.record Trace.Restart 1;
  checki "nothing recorded while disabled" 0 (Trace.recorded ());
  checki "dump empty" 0 (List.length (Trace.dump ()))

let test_trace_order_and_fields () =
  Trace.configure ~capacity:16;
  Arm.with_ Arm.trace (fun () ->
      for i = 0 to 9 do
        Trace.record Trace.Restart i
      done);
  let events = Trace.dump () in
  checki "all retained" 10 (List.length events);
  List.iteri
    (fun i (e : Trace.event) ->
      checki "args in recording order" i e.arg;
      checkb "kind preserved" true (e.kind = Trace.Restart);
      checkb "timestamp plausible" true (e.t_ns > 0))
    events

let test_trace_wraps_keeping_newest () =
  Trace.configure ~capacity:8;
  Arm.with_ Arm.trace (fun () ->
      for i = 0 to 10 do
        Trace.record Trace.Read_enter i
      done);
  checki "total recorded counts overwrites" 11 (Trace.recorded ());
  let events = Trace.dump () in
  checki "retention bounded by capacity" 8 (List.length events);
  (match events with
  | first :: _ -> checki "oldest retained is recorded - capacity" 3 first.arg
  | [] -> Alcotest.fail "empty dump");
  match List.rev events with
  | last :: _ -> checki "newest retained" 10 last.arg
  | [] -> Alcotest.fail "empty dump"

let test_trace_bounded_under_concurrency () =
  let capacity = 1_024 in
  Trace.configure ~capacity;
  let n_domains = 4 and per_domain = 100_000 in
  Arm.with_ Arm.trace (fun () ->
      List.init n_domains (fun _ ->
          Domain.spawn (fun () ->
              (* Far more events than capacity: recording must neither
                 block nor grow memory — it overwrites. Completion of this
                 loop IS the non-blocking check. *)
              for i = 1 to per_domain do
                Trace.record Trace.Lock_acquire i
              done))
      |> List.iter Domain.join);
  checki "every record claimed a slot" (n_domains * per_domain)
    (Trace.recorded ());
  checki "retention stays at capacity" capacity (List.length (Trace.dump ()));
  checki "capacity unchanged" capacity (Trace.capacity ())

(* --- JSON encode/parse --- *)

let rec json_equal a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> x = y
  | Json.Int x, Json.Int y -> x = y
  | Json.Float x, Json.Float y -> x = y
  | Json.String x, Json.String y -> x = y
  | Json.List x, Json.List y ->
      List.length x = List.length y && List.for_all2 json_equal x y
  | Json.Obj x, Json.Obj y ->
      List.length x = List.length y
      && List.for_all2
           (fun (k1, v1) (k2, v2) -> k1 = k2 && json_equal v1 v2)
           x y
  | _ -> false

let sample_doc =
  Json.Obj
    [
      ("schema_version", Json.Int 1);
      ("pi", Json.Float 3.141592653589793);
      ("negative", Json.Int (-42));
      ("huge", Json.Float 1.5e300);
      ("small", Json.Float 2.5e-10);
      ("flag", Json.Bool true);
      ("nothing", Json.Null);
      ("name", Json.String "quotes \" backslash \\ newline \n tab \t end");
      ("control", Json.String "\001\031");
      ("empty_list", Json.List []);
      ("empty_obj", Json.Obj []);
      ( "nested",
        Json.List
          [ Json.Obj [ ("k", Json.List [ Json.Int 1; Json.Float 2.0 ]) ] ] );
    ]

let test_json_roundtrip () =
  let pretty = Json.to_string sample_doc in
  checkb "pretty round-trips" true (json_equal sample_doc (Json.of_string pretty));
  let mini = Json.to_string ~minify:true sample_doc in
  checkb "minified round-trips" true (json_equal sample_doc (Json.of_string mini));
  checkb "minified has no newline" true (not (String.contains mini '\n'))

let test_json_parse_external () =
  (* Whitespace tolerance and escapes as another producer would write them. *)
  let doc =
    "  { \"a\" : [ 1 , 2.5 , -3e2 , \"x\\u0041\\n\" ] , \"b\" : null }  "
  in
  match Json.of_string doc with
  | Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Float f; Json.String s ]); ("b", Json.Null) ] ->
      Alcotest.check (Alcotest.float 0.0001) "exponent" (-300.0) f;
      Alcotest.check Alcotest.string "unicode + newline escape" "xA\n" s
  | _ -> Alcotest.fail "unexpected parse"

let test_json_rejects_garbage () =
  let rejects s =
    match Json.of_string s with
    | exception Json.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted malformed input %S" s
  in
  List.iter rejects
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{\"a\" 1}" ]

let test_json_nonfinite_floats_stay_valid () =
  let doc = Json.Obj [ ("bad", Json.Float Float.nan); ("inf", Json.Float Float.infinity) ] in
  match Json.of_string (Json.to_string doc) with
  | Json.Obj [ ("bad", Json.Null); ("inf", Json.Null) ] -> ()
  | _ -> Alcotest.fail "non-finite floats must serialize as null"

(* --- report round-trip through a real run --- *)

let test_report_roundtrip () =
  let cfg =
    W.config ~key_range:512 ~threads:2 ~duration:0.05
      ~role:(W.Uniform W.contains_50) ()
  in
  let r = Runner.run (module Repro_dict.Dict.Citrus_epoch) cfg in
  checkb "metrics captured" true (r.Runner.metrics <> []);
  checkb "latency captured" true (r.Runner.latency <> []);
  let doc =
    Json_report.report [ ("test", [ Json_report.point_json cfg r ]) ]
  in
  let parsed = Json.of_string (Json.to_string doc) in
  checkb "round-trips" true (json_equal doc parsed);
  (* Walk the parsed tree for the fields the trajectory tooling relies on. *)
  let get path =
    List.fold_left
      (fun acc key ->
        match acc with
        | Some j -> (
            match int_of_string_opt key with
            | Some i -> (
                match Json.to_list_opt j with
                | Some l when List.length l > i -> Some (List.nth l i)
                | _ -> None)
            | None -> Json.member key j)
        | None -> None)
      (Some parsed) path
  in
  checki "schema version" Json_report.schema_version
    (Option.get (Option.bind (get [ "schema_version" ]) Json.to_int_opt));
  let point = [ "experiments"; "0"; "points"; "0" ] in
  let has_float path =
    match Option.bind (get path) Json.to_float_opt with
    | Some _ -> true
    | None -> false
  in
  checkb "throughput" true (has_float (point @ [ "throughput_ops_per_s" ]));
  checkb "p50" true (has_float (point @ [ "latency_ns"; "contains"; "p50_ns" ]));
  checkb "p99" true (has_float (point @ [ "latency_ns"; "contains"; "p99_ns" ]));
  checkb "p99.9" true
    (has_float (point @ [ "latency_ns"; "contains"; "p999_ns" ]));
  checkb "grace periods" true (has_float (point @ [ "metrics"; "grace_periods" ]));
  checkb "grace period mean" true
    (has_float (point @ [ "metrics"; "grace_period_mean_ns" ]));
  checkb "lock contention" true
    (has_float (point @ [ "metrics"; "lock_contended" ]));
  checkb "restarts" true (has_float (point @ [ "metrics"; "restarts" ]))

(* --- grace-period accounting --- *)

let test_grace_period_exactly_once (module R : Repro_rcu.Rcu.S) () =
  Metrics.reset ();
  let rcu = R.create () in
  let th = R.register rcu in
  let rounds = 100 in
  (* A concurrently active reader population makes the synchronize path
     take its wait branches; the count must still be exact. *)
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let th = R.register rcu in
        while not (Atomic.get stop) do
          R.read_lock th;
          Domain.cpu_relax ();
          R.read_unlock th
        done;
        R.unregister th)
  in
  for _ = 1 to rounds do
    R.synchronize rcu
  done;
  Atomic.set stop true;
  Domain.join reader;
  R.unregister th;
  checki "implementation count" rounds (R.grace_periods rcu);
  checki "metrics count matches synchronize calls" rounds
    (Stats.Timer.count Metrics.grace_period_ns);
  checkb "durations accumulated" true
    (Stats.Timer.total_ns Metrics.grace_period_ns > 0);
  Metrics.reset ()

let test_lock_contention_metrics () =
  Metrics.reset ();
  let l = Repro_sync.Spinlock.create () in
  Repro_sync.Spinlock.acquire l;
  let waiter =
    Domain.spawn (fun () ->
        Repro_sync.Spinlock.acquire l;
        Repro_sync.Spinlock.release l)
  in
  Unix.sleepf 0.02;
  Repro_sync.Spinlock.release l;
  Domain.join waiter;
  checkb "contended acquisition counted" true
    (Stats.read Metrics.lock_contended >= 1);
  checkb "wait time recorded" true
    (Stats.Timer.total_ns Metrics.lock_wait_ns > 0);
  checkb "acquisitions counted" true (Stats.read Metrics.lock_acquires >= 2);
  Metrics.reset ()

let () =
  Alcotest.run "obs"
    [
      ( "counters",
        [
          Alcotest.test_case "monotone under concurrency" `Quick
            test_counter_monotone_concurrent;
          Alcotest.test_case "timer concurrent totals" `Quick
            test_timer_concurrent;
          Alcotest.test_case "timer max under contention" `Quick
            test_timer_max_concurrent;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled records nothing" `Quick
            test_trace_disabled_records_nothing;
          Alcotest.test_case "order and fields" `Quick
            test_trace_order_and_fields;
          Alcotest.test_case "wraps keeping newest" `Quick
            test_trace_wraps_keeping_newest;
          Alcotest.test_case "bounded and non-blocking" `Quick
            test_trace_bounded_under_concurrency;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "external input" `Quick test_json_parse_external;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
          Alcotest.test_case "non-finite floats" `Quick
            test_json_nonfinite_floats_stay_valid;
          Alcotest.test_case "report round-trip" `Quick test_report_roundtrip;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "grace periods exact (epoch)" `Quick
            (test_grace_period_exactly_once (module Repro_rcu.Epoch_rcu));
          Alcotest.test_case "grace periods exact (urcu)" `Quick
            (test_grace_period_exactly_once (module Repro_rcu.Urcu));
          Alcotest.test_case "grace periods exact (qsbr)" `Quick
            (test_grace_period_exactly_once (module Repro_rcu.Qsbr));
          Alcotest.test_case "lock contention" `Quick
            test_lock_contention_metrics;
        ] );
    ]
