(* Tests for the serving layer: hash distribution across shards, FIFO
   drain order and backpressure of the modification queue, completion
   wake-up, typed admission rejects and overload shedding, supervisor
   crash-restart (with both validators armed), restart-budget exhaustion
   (including that a failed shard aborts rather than strands its
   waiters), the closed-admission barrier, the staleness watchdog, the
   shutdown drain deadline and no-updater backlog sweep, the open-loop
   generator's retry/deadline accounting, the chaos backlog-loss
   mutation, and an end-to-end serve run with lockdep and the
   reclamation sanitizer armed. *)

module Mod_queue = Repro_server.Mod_queue
module Shard_router = Repro_server.Shard_router
module Supervisor = Repro_server.Supervisor
module Health = Repro_server.Health
module Breaker = Repro_server.Breaker
module Chaos = Repro_server.Chaos
module Mutation = Repro_mutants.Mutation
module Serve = Repro_server.Serve
module Open_loop = Repro_workload.Open_loop
module W = Repro_workload.Workload
module Dict = Repro_dict.Dict
module Metrics = Repro_sync.Metrics
module Stats = Repro_sync.Stats
module Router = Shard_router.Make (Dict.Citrus_epoch)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* --- Shard_router: hashing --- *)

let test_shard_distribution () =
  let t = Router.create ~shards:8 ~max_clients:2 () in
  let counts = Array.make 8 0 in
  let n = 64_000 in
  for k = 0 to n - 1 do
    let s = Router.shard_of t k in
    checkb "in range" true (s >= 0 && s < 8);
    counts.(s) <- counts.(s) + 1
  done;
  (* A dense ascending key range must spread evenly: each shard within
     ±25% of the fair share (splitmix64 is far tighter; the slack keeps
     the test robust). *)
  Array.iteri
    (fun i c ->
      checkb
        (Printf.sprintf "shard %d near fair share (got %d)" i c)
        true
        (abs (c - (n / 8)) < n / 32))
    counts;
  ignore (Router.shutdown t)

let test_shard_of_deterministic () =
  let t = Router.create ~shards:5 ~max_clients:2 () in
  for k = 0 to 1000 do
    checki "stable" (Router.shard_of t k) (Router.shard_of t k)
  done;
  ignore (Router.shutdown t)

(* --- Mod_queue: FIFO drain order --- *)

let test_fifo_drain () =
  let q = Mod_queue.create ~depth:128 () in
  for k = 0 to 99 do
    checkb "accepted" true (Mod_queue.try_enqueue q (Mod_queue.Insert (k, k)))
  done;
  checki "length" 100 (Mod_queue.length q);
  (* Drain in two unequal batches across the ring seam and check order. *)
  let seen = ref [] in
  let batch1 = Mod_queue.drain q ~max:64 in
  let batch2 = Mod_queue.drain q ~max:64 in
  checki "first batch" 64 (Array.length batch1);
  checki "second batch" 36 (Array.length batch2);
  Array.iter
    (fun (e : Mod_queue.entry) ->
      match e.op with
      | Mod_queue.Insert (k, _) -> seen := k :: !seen
      | _ -> Alcotest.fail "unexpected op")
    batch1;
  Array.iter
    (fun (e : Mod_queue.entry) ->
      match e.op with
      | Mod_queue.Insert (k, _) -> seen := k :: !seen
      | _ -> Alcotest.fail "unexpected op")
    batch2;
  Alcotest.check
    Alcotest.(list int)
    "FIFO order" (List.init 100 Fun.id) (List.rev !seen);
  checki "empty after" 0 (Mod_queue.length q);
  checki "drain on empty" 0 (Array.length (Mod_queue.drain q ~max:8))

let test_fifo_per_shard_through_router () =
  (* Same-key updates serialize through one shard's queue: alternating
     insert/delete of one key must leave the table in the state the last
     operation dictates, for every interleaving prefix. *)
  let t = Router.create ~shards:4 ~max_clients:2 () in
  let h = Router.register t in
  Router.start t;
  for round = 1 to 200 do
    (match Router.insert_wait h 7 round with
    | Ok _ -> ()
    | Error _ -> Alcotest.fail "insert rejected");
    match Router.delete_wait h 7 with
    | Ok r ->
        checkb "delete saw the insert" true (Shard_router.write_result_value r)
    | Error _ -> Alcotest.fail "delete rejected"
  done;
  checkb "absent at end" false (Router.mem h 7);
  Router.unregister h;
  ignore (Router.shutdown t);
  Router.check t

(* --- typed rejects: overload shedding and queue-full backpressure --- *)

let test_typed_rejects () =
  (* No updater running, one shard, depth 8, default watermarks (high =
     6). Fire-and-forget writes shed with [Overload] once the high
     watermark is reached; completion-waited writes are still admitted
     until the queue itself is full, which rejects with [Full]. *)
  let t = Router.create ~shards:1 ~queue_depth:8 ~max_clients:8 () in
  let h = Router.register t in
  let oks = ref 0 and overloads = ref 0 in
  for k = 0 to 9 do
    match Router.insert h k k with
    | Ok () -> incr oks
    | Error Shard_router.Overload -> incr overloads
    | Error r ->
        Alcotest.fail ("unexpected reject " ^ Shard_router.reject_name r)
  done;
  checki "accepted up to high watermark" 6 !oks;
  checki "shed after high watermark" 4 !overloads;
  let q = (Router.queue_stats t).(0) in
  checki "enqueued" 6 q.Mod_queue.enqueued;
  checki "shed writes never reach the queue" 0 q.Mod_queue.dropped;
  (* Two waited writes on top fill the queue to its bound... *)
  let waiters =
    List.init 2 (fun i ->
        Domain.spawn (fun () -> Router.insert_wait h (100 + i) (100 + i)))
  in
  let rec until_enqueued n tries =
    if (Router.queue_stats t).(0).Mod_queue.enqueued < n then
      if tries = 0 then Alcotest.fail "waited writes never enqueued"
      else begin
        Unix.sleepf 0.005;
        until_enqueued n (tries - 1)
      end
  in
  until_enqueued 8 400;
  (* ...so a further waited write hits the bound itself: [Full]. *)
  checkb "full for waited" true
    (Router.insert_wait h 200 200 = Error Shard_router.Full);
  (* Start the updater: the backlog (6 async + 2 waited) must drain. *)
  Router.start t;
  List.iter
    (fun d ->
      match Domain.join d with
      | Ok wr ->
          checkb "waited write applied" true
            (Shard_router.write_result_value wr)
      | Error r ->
          Alcotest.fail ("waited write lost: " ^ Shard_router.reject_name r))
    waiters;
  Router.unregister h;
  checkb "drained shutdown" true (Router.shutdown t = Shard_router.Drained);
  let q = (Router.queue_stats t).(0) in
  checki "all accepted ops drained" q.Mod_queue.enqueued q.Mod_queue.drained;
  checki "size" 8 (Router.size t)

let test_rejected_after_shutdown () =
  let t = Router.create ~shards:2 ~max_clients:2 () in
  let h = Router.register t in
  Router.start t;
  checkb "accepted while running" true
    (Router.insert_wait h 1 1 = Ok (Shard_router.Applied true));
  ignore (Router.shutdown t);
  checkb "rejected after shutdown" true
    (Router.insert h 2 2 = Error Shard_router.Shutdown);
  checkb "wait rejected after shutdown" true
    (Router.insert_wait h 3 3 = Error Shard_router.Shutdown);
  checkb "reads still work" true (Router.mem h 1);
  Router.unregister h

(* --- completions --- *)

let test_completion_wakeup () =
  let c = Mod_queue.completion () in
  checkb "pending" true (Mod_queue.peek c = Mod_queue.Pending);
  let waiter = Domain.spawn (fun () -> Mod_queue.await c) in
  Unix.sleepf 0.02;
  Mod_queue.complete c true;
  checkb "woke with result" true (Domain.join waiter = Mod_queue.Done true);
  checkb "peek after" true (Mod_queue.peek c = Mod_queue.Done true)

let test_completion_abort () =
  let c = Mod_queue.completion () in
  let waiter = Domain.spawn (fun () -> Mod_queue.await c) in
  Unix.sleepf 0.02;
  Mod_queue.abort c;
  checkb "waiter unblocked as aborted" true
    (Domain.join waiter = Mod_queue.Aborted);
  checkb "peek aborted" true (Mod_queue.peek c = Mod_queue.Aborted);
  (* A resolved result is never un-resolved, in either direction. *)
  Mod_queue.complete c true;
  checkb "complete after abort is a no-op" true
    (Mod_queue.peek c = Mod_queue.Aborted);
  let c2 = Mod_queue.completion () in
  Mod_queue.complete c2 false;
  Mod_queue.abort c2;
  checkb "abort after complete is a no-op" true
    (Mod_queue.peek c2 = Mod_queue.Done false)

let test_completion_through_updater () =
  let t = Router.create ~shards:2 ~max_clients:2 () in
  Router.start t;
  let h = Router.register t in
  checkb "fresh insert" true
    (Router.insert_wait h 5 50 = Ok (Shard_router.Applied true));
  checkb "duplicate insert" true
    (Router.insert_wait h 5 51 = Ok (Shard_router.Applied false));
  checkb "read sees it" true (Router.get h 5 = Some 50);
  checkb "delete" true
    (Router.delete_wait h 5 = Ok (Shard_router.Applied true));
  checkb "double delete" true
    (Router.delete_wait h 5 = Ok (Shard_router.Applied false));
  Router.unregister h;
  ignore (Router.shutdown t)

(* --- Mod_queue: purge and stats consistency --- *)

let test_purge_aborts_completions () =
  let q = Mod_queue.create ~depth:32 () in
  let cs = List.init 5 (fun _ -> Mod_queue.completion ()) in
  List.iteri
    (fun i c ->
      checkb "accepted" true
        (Mod_queue.try_enqueue q ~completion:c (Mod_queue.Insert (i, i))))
    cs;
  let lost_before = Stats.read Metrics.writes_lost in
  checki "purged count" 5 (Mod_queue.purge q);
  checki "queue empty" 0 (Mod_queue.length q);
  List.iter
    (fun c ->
      checkb "completion aborted" true (Mod_queue.await c = Mod_queue.Aborted))
    cs;
  checki "writes_lost counted" (lost_before + 5)
    (Stats.read Metrics.writes_lost);
  let s = Mod_queue.stats q in
  checki "stats enqueued" 5 s.Mod_queue.enqueued;
  checki "stats purged" 5 s.Mod_queue.purged;
  checki "stats drained" 0 s.Mod_queue.drained

(* --- Mod_queue: closed admission barrier --- *)

let test_close_rejects_enqueue () =
  let q = Mod_queue.create ~depth:8 () in
  checkb "open accepts" true (Mod_queue.try_enqueue q (Mod_queue.Insert (1, 1)));
  checkb "not closed yet" false (Mod_queue.is_closed q);
  Mod_queue.close q;
  checkb "closed" true (Mod_queue.is_closed q);
  checkb "closed rejects, typed" true
    (Mod_queue.enqueue q (Mod_queue.Insert (2, 2)) = Mod_queue.Admit_closed);
  checkb "closed rejects, boolean" false
    (Mod_queue.try_enqueue q (Mod_queue.Insert (3, 3)));
  (* A closed reject is not backpressure: it must not count as a drop. *)
  checki "no drop counted" 0 (Mod_queue.stats q).Mod_queue.dropped;
  (* Draining the pre-close backlog still works, so close-then-sweep
     strands nothing. *)
  checki "pre-close entry drains" 1 (Array.length (Mod_queue.drain q ~max:8));
  Mod_queue.close q (* idempotent *);
  checki "purge after close finds nothing" 0 (Mod_queue.purge q)

(* --- shutdown without start: the backlog sweep --- *)

let test_shutdown_applies_pre_start_backlog () =
  (* [start] is never called: the only thing standing between these
     accepted writes (and their waiters) and a permanent hang is the
     shutdown sweep. *)
  let t = Router.create ~shards:2 ~queue_depth:64 ~max_clients:4 () in
  let h = Router.register t in
  let accepted = ref 0 in
  for k = 0 to 19 do
    if Router.insert h k k = Ok () then incr accepted
  done;
  checkb "writes accepted before start" true (!accepted > 0);
  let waiter = Domain.spawn (fun () -> Router.insert_wait h 100 100) in
  let rec until_enqueued tries =
    let n =
      Array.fold_left
        (fun acc (q : Mod_queue.stats) -> acc + q.Mod_queue.enqueued)
        0 (Router.queue_stats t)
    in
    if n < !accepted + 1 then
      if tries = 0 then Alcotest.fail "waited write never enqueued"
      else begin
        Unix.sleepf 0.005;
        until_enqueued (tries - 1)
      end
  in
  until_enqueued 400;
  checkb "drained without updaters" true
    (Router.shutdown t = Shard_router.Drained);
  (match Domain.join waiter with
  | Ok wr ->
      checkb "waiter resolved by the sweep" true
        (Shard_router.write_result_value wr)
  | Error r ->
      Alcotest.fail ("waited write lost: " ^ Shard_router.reject_name r));
  checki "every accepted write applied" (!accepted + 1) (Router.size t);
  Router.check t;
  Router.unregister h

(* --- Supervisor: a failed shard aborts its waiters --- *)

let test_failed_shard_unblocks_waiter () =
  (* Budget of zero: the first crash fails the shard. The waited write is
     the very entry the crash lands on — its completion must abort (the
     failure path closes admission, purges the queue and aborts the
     adopted batch), so the waiter unblocks with [Failed] instead of
     spinning forever on a queue no updater will ever drain again. *)
  let policy =
    {
      Supervisor.max_restarts = 0;
      backoff_base_ns = 100_000;
      backoff_max_ns = 1_000_000;
      reset_after_ns = 60_000_000_000;
    }
  in
  let t =
    Router.create ~shards:1 ~queue_depth:64 ~max_clients:4 ~supervisor:policy
      ()
  in
  let h = Router.register t in
  checkb "prefilled" true (Router.load h 1 1);
  let waiter = Domain.spawn (fun () -> Router.insert_wait h 7 7) in
  let rec until_enqueued tries =
    if (Router.queue_stats t).(0).Mod_queue.enqueued < 1 then
      if tries = 0 then Alcotest.fail "waited write never enqueued"
      else begin
        Unix.sleepf 0.005;
        until_enqueued (tries - 1)
      end
  in
  until_enqueued 400;
  Router.crash_updater t 0;
  Router.start t;
  (match Domain.join waiter with
  | Error Shard_router.Failed -> ()
  | Error r ->
      Alcotest.fail ("unexpected reject " ^ Shard_router.reject_name r)
  | Ok _ -> Alcotest.fail "aborted write reported applied");
  checkb "shard failed" true ((Router.health t).(0) = Health.Failed);
  (* Late producers get the typed reject even though they race no
     explicit purge anymore — admission is closed for good. *)
  checkb "write rejected as failed" true
    (Router.insert h 9 9 = Error Shard_router.Failed);
  checkb "reads keep working" true (Router.mem h 1);
  checkb "failed shard shuts down cleanly" true
    (Router.shutdown t = Shard_router.Drained);
  Router.unregister h

(* --- Mod_queue: staleness watchdog --- *)

let test_stall_watchdog () =
  let q = Mod_queue.create ~id:3 ~depth:16 () in
  Fun.protect
    ~finally:(fun () -> Mod_queue.set_stall_threshold_ns 0)
    (fun () ->
      Mod_queue.set_stall_threshold_ns 10_000_000 (* 10 ms *);
      let stalls_before = Stats.read Metrics.mod_queue_stalls in
      checkb "accepted" true (Mod_queue.try_enqueue q (Mod_queue.Insert (1, 1)));
      Unix.sleepf 0.03;
      (* The queue is non-empty and nothing has drained for 30 ms >
         threshold: the next producer-side check fires one report. *)
      checkb "accepted" true (Mod_queue.try_enqueue q (Mod_queue.Insert (2, 2)));
      checki "stall reported" (stalls_before + 1)
        (Stats.read Metrics.mod_queue_stalls);
      (* Inside the same window: throttled, no second report. *)
      Mod_queue.check_stall q;
      checki "one report per window" (stalls_before + 1)
        (Stats.read Metrics.mod_queue_stalls);
      (* A drain resets staleness: no report after draining. *)
      ignore (Mod_queue.drain q ~max:16);
      Unix.sleepf 0.03;
      Mod_queue.check_stall q;
      checki "empty queue never stalls" (stalls_before + 1)
        (Stats.read Metrics.mod_queue_stalls))

(* --- Health: watermarks, hysteresis, terminal failure --- *)

let test_health_state_machine () =
  let hl = Health.create ~shard:0 ~capacity:100 () in
  checkb "starts healthy" true (Health.state hl = Health.Healthy);
  Health.observe_depth hl 74;
  checkb "below high watermark" true (Health.state hl = Health.Healthy);
  Health.observe_depth hl 75;
  checkb "degrades at high watermark" true (Health.state hl = Health.Degraded);
  Health.observe_depth hl 50;
  checkb "hysteresis holds between watermarks" true
    (Health.state hl = Health.Degraded);
  Health.observe_depth hl 25;
  checkb "recovers at low watermark" true (Health.state hl = Health.Healthy);
  Health.note_stall hl;
  checkb "stall degrades" true (Health.state hl = Health.Degraded);
  checkb "first failure marks" true (Health.mark_failed hl);
  checkb "second failure is a no-op" false (Health.mark_failed hl);
  Health.observe_depth hl 0;
  checkb "failed is terminal" true (Health.state hl = Health.Failed)

let test_health_pressure_latch () =
  (* Reclamation pressure is a latch, not an edge: while it is set,
     depth-based healing is blocked — a drained queue does not make a
     shard healthy while its retired backlog is still behind. *)
  let hl = Health.create ~shard:0 ~capacity:100 () in
  Health.observe_reclaim_pressure hl 0.5;
  checkb "below high threshold: healthy" true (Health.state hl = Health.Healthy);
  checkb "not latched" false (Health.pressure_latched hl);
  Health.observe_reclaim_pressure hl 0.8;
  checkb "high pressure degrades" true (Health.state hl = Health.Degraded);
  checkb "latched" true (Health.pressure_latched hl);
  Health.observe_depth hl 0;
  checkb "depth healing blocked while latched" true
    (Health.state hl = Health.Degraded);
  Health.observe_reclaim_pressure hl 0.5;
  checkb "hysteresis holds between thresholds" true
    (Health.pressure_latched hl);
  Health.observe_reclaim_pressure hl 0.2;
  checkb "latch clears at low threshold" false (Health.pressure_latched hl);
  Health.observe_depth hl 0;
  checkb "heals once the latch is clear" true (Health.state hl = Health.Healthy)

(* --- Breaker: pure state machine, driven without sleeping --- *)

let breaker_cfg =
  {
    Breaker.window_ns = 1_000_000_000;
    min_samples = 4;
    failure_pct = 50;
    open_base_ns = 1_000;
    open_max_ns = 1_000_000;
    probes = 2;
  }

let test_breaker_trip_probe_close () =
  let b = Breaker.create ~config:breaker_cfg ~shard:0 () in
  checkb "starts closed" true (Breaker.state b = Breaker.Closed);
  checkb "closed admits" true (Breaker.admit b ~now_ns:0 = Breaker.Admit);
  (* One success, one failure: 50% but below min_samples — no trip. *)
  Breaker.on_success b ~now_ns:0 ~probe:false;
  Breaker.on_failure b ~now_ns:0 ~probe:false;
  checkb "below min_samples stays closed" true
    (Breaker.state b = Breaker.Closed);
  (* Two more failures reach 4 samples at 75% >= 50%: trip. *)
  Breaker.on_failure b ~now_ns:0 ~probe:false;
  Breaker.on_failure b ~now_ns:0 ~probe:false;
  checkb "tripped open" true (Breaker.state b = Breaker.Open);
  checki "one trip" 1 (Breaker.trips b);
  let d1 = Breaker.open_until_ns b in
  checkb "first interval jittered into [base/2, base)" true
    (d1 >= 500 && d1 < 1_000);
  checkb "open rejects" true (Breaker.admit b ~now_ns:0 = Breaker.Reject);
  checki "reject counted" 1 (Breaker.rejects b);
  (* Interval over: half-open, two probe slots, then reject. *)
  checkb "first probe slot" true (Breaker.admit b ~now_ns:d1 = Breaker.Probe);
  checkb "half-open" true (Breaker.state b = Breaker.Half_open);
  checkb "second probe slot" true (Breaker.admit b ~now_ns:d1 = Breaker.Probe);
  checkb "slots exhausted reject" true
    (Breaker.admit b ~now_ns:d1 = Breaker.Reject);
  (* Ordinary failures cannot re-trip a probing breaker. *)
  Breaker.on_failure b ~now_ns:d1 ~probe:false;
  checkb "straggler failure ignored while half-open" true
    (Breaker.state b = Breaker.Half_open);
  (* A probe failure re-opens with the doubled interval. *)
  Breaker.on_failure b ~now_ns:d1 ~probe:true;
  checkb "probe failure re-opens" true (Breaker.state b = Breaker.Open);
  checki "second trip" 2 (Breaker.trips b);
  let d2 = Breaker.open_until_ns b in
  checkb "second interval doubled" true (d2 - d1 >= 1_000 && d2 - d1 < 2_000);
  (* All probes succeeding closes the breaker and resets the backoff. *)
  checkb "probe after interval" true (Breaker.admit b ~now_ns:d2 = Breaker.Probe);
  Breaker.on_success b ~now_ns:d2 ~probe:true;
  checkb "one probe success is not enough" true
    (Breaker.state b = Breaker.Half_open);
  checkb "second probe" true (Breaker.admit b ~now_ns:d2 = Breaker.Probe);
  Breaker.on_success b ~now_ns:d2 ~probe:true;
  checkb "all probes succeed: closed" true (Breaker.state b = Breaker.Closed);
  checkb "window reset on close" true (Breaker.window b = (0, 0));
  (* Backoff reset: the next trip is back at the base interval. *)
  Breaker.on_crash b ~now_ns:d2;
  checki "crash trips unconditionally" 3 (Breaker.trips b);
  let d3 = Breaker.open_until_ns b in
  checkb "backoff reset after close" true (d3 - d2 >= 500 && d3 - d2 < 1_000)

let test_breaker_window_rotation () =
  let b = Breaker.create ~config:breaker_cfg ~shard:0 () in
  (* Three failures in one window: still below min_samples. *)
  for _ = 1 to 3 do
    Breaker.on_failure b ~now_ns:0 ~probe:false
  done;
  checkb "still closed" true (Breaker.state b = Breaker.Closed);
  (* A failure in the next window rotates first: the old samples are
     gone, so the count restarts and nothing trips. *)
  Breaker.on_failure b ~now_ns:(breaker_cfg.Breaker.window_ns + 1) ~probe:false;
  checkb "rotated window" true (Breaker.window b = (0, 1));
  checkb "no trip across windows" true (Breaker.state b = Breaker.Closed)

let test_breaker_jitter_deterministic () =
  let trip_interval seed =
    let b = Breaker.create ~config:breaker_cfg ~seed ~shard:0 () in
    Breaker.on_crash b ~now_ns:0;
    Breaker.open_until_ns b
  in
  checki "same seed, same schedule" (trip_interval 7L) (trip_interval 7L);
  checkb "different seeds decorrelate" true
    (trip_interval 1L <> trip_interval 2L)

let test_breaker_never_open_mutant () =
  Mutation.arm [ "bug.breaker.never_open" ] @@ fun () ->
  let b = Breaker.create ~config:breaker_cfg ~shard:0 () in
  Breaker.on_crash b ~now_ns:0;
  for _ = 1 to 10 do
    Breaker.on_failure b ~now_ns:0 ~probe:false
  done;
  checkb "mutant never opens" true (Breaker.state b = Breaker.Closed);
  checki "no trips" 0 (Breaker.trips b);
  checkb "mutant admits everything" true
    (Breaker.admit b ~now_ns:0 = Breaker.Admit)

let test_breaker_config_validation () =
  let bad cfg =
    match Breaker.create ~config:cfg ~shard:0 () with
    | _ -> Alcotest.fail "invalid config accepted"
    | exception Invalid_argument _ -> ()
  in
  bad { breaker_cfg with Breaker.failure_pct = 0 };
  bad { breaker_cfg with Breaker.failure_pct = 101 };
  bad { breaker_cfg with Breaker.probes = 0 };
  bad { breaker_cfg with Breaker.open_max_ns = 1 }

(* --- deadline propagation: dead-on-arrival admission --- *)

let test_deadline_dead_on_arrival () =
  let t = Router.create ~shards:1 ~max_clients:2 () in
  let h = Router.register t in
  Router.start t;
  checkb "DOA write rejected expired" true
    (Router.insert h ~deadline_ns:1 1 1 = Error Shard_router.Expired);
  checkb "waited DOA rejected expired" true
    (Router.insert_wait h ~deadline_ns:1 2 2 = Error Shard_router.Expired);
  checkb "live deadline admits and applies" true
    (Router.insert_wait h
       ~deadline_ns:(Metrics.now_ns () + 1_000_000_000)
       3 3
    = Ok (Shard_router.Applied true));
  checkb "expired writes never reached the tree" false (Router.mem h 1);
  Router.unregister h;
  ignore (Router.shutdown t)

(* --- Supervisor: crash restart with both validators armed --- *)

let test_supervisor_restart_armed () =
  Repro_sanitizer.Sanitizer.arm ();
  Repro_lockdep.Lockdep.arm ();
  Fun.protect
    ~finally:(fun () ->
      Repro_lockdep.Lockdep.disarm ();
      Repro_sanitizer.Sanitizer.disarm ())
    (fun () ->
      (* Each crash trips the shard's breaker; a 1 ns open interval makes
         the re-offer immediate, so the next round's waited write is
         admitted (as a probe) without a retry loop — the property under
         test is crash survival, not the re-offer schedule. *)
      let breaker =
        { Breaker.default_config with Breaker.open_base_ns = 1; probes = 16 }
      in
      let t = Router.create ~shards:2 ~max_clients:4 ~breaker () in
      Router.start t;
      let h = Router.register t in
      (* Keys landing on each shard, found via the router's own hash. *)
      let key_on shard from =
        let k = ref from in
        while Router.shard_of t !k <> shard do
          incr k
        done;
        !k
      in
      for round = 0 to 2 do
        for shard = 0 to 1 do
          Router.crash_updater t shard;
          (* The waited write rides through the crash: the one-shot flag
             fires before this very entry applies, the supervisor
             restarts the updater, and the successor adopts the pending
             batch — so the completion must resolve, and honestly: this
             entry is deterministically part of the adopted batch, so its
             status is [Replayed], never plain [Applied]. The key is
             fresh, so the replay observes [true]. *)
          let k = key_on shard (1000 * (round + 1)) in
          match Router.insert_wait h k k with
          | Ok (Shard_router.Replayed fresh) ->
              checkb "write survived the crash" true fresh
          | Ok (Shard_router.Applied _) ->
              Alcotest.fail
                "adopted-batch write reported Applied, expected Replayed"
          | Error r ->
              Alcotest.fail
                ("write lost to crash: " ^ Shard_router.reject_name r)
        done
      done;
      let crashes = Router.crashes t in
      let restarts = Router.restarts t in
      for shard = 0 to 1 do
        checkb
          (Printf.sprintf "shard %d crashed 3 times" shard)
          true
          (crashes.(shard) = 3);
        checkb
          (Printf.sprintf "shard %d restarted each time" shard)
          true
          (restarts.(shard) = 3)
      done;
      Array.iter
        (fun st -> checkb "still healthy" true (st <> Health.Failed))
        (Router.health t);
      checkb "recovery latencies sampled" true
        (List.length (Router.restart_latencies_ns t) = 6);
      Router.unregister h;
      checkb "drained shutdown" true (Router.shutdown t = Shard_router.Drained);
      Router.check t);
  checki "no lockdep violations" 0 (Repro_lockdep.Lockdep.violations ());
  checki "no sanitizer violations" 0 (Repro_sanitizer.Sanitizer.violations ())

(* --- Supervisor: restart-budget exhaustion fails the shard --- *)

let test_budget_exhaustion_fails_shard () =
  let policy =
    {
      Supervisor.max_restarts = 2;
      backoff_base_ns = 100_000;
      backoff_max_ns = 1_000_000;
      reset_after_ns = 60_000_000_000 (* no window reset during the test *);
    }
  in
  let t =
    Router.create ~shards:1 ~queue_depth:64 ~max_clients:4 ~supervisor:policy
      ()
  in
  let h = Router.register t in
  checkb "prefilled" true (Router.load h 1 1);
  Router.start t;
  let wait_crashes n =
    let rec go tries =
      if (Router.crashes t).(0) < n then
        if tries = 0 then Alcotest.fail "crash never happened"
        else begin
          Unix.sleepf 0.005;
          go (tries - 1)
        end
    in
    go 1000
  in
  (* Crashes 1 and 2 are within budget; crash 3 exceeds it. Each needs a
     write to consume the one-shot flag. *)
  for round = 1 to 3 do
    Router.crash_updater t 0;
    let rec trigger tries =
      if (Router.crashes t).(0) < round then
        if tries = 0 then Alcotest.fail "trigger write never accepted"
        else begin
          (match Router.insert h (100 + round) round with
          | Ok () | Error _ -> ());
          Unix.sleepf 0.002;
          trigger (tries - 1)
        end
    in
    trigger 2000;
    wait_crashes round
  done;
  let rec wait_failed tries =
    if (Router.health t).(0) <> Health.Failed then
      if tries = 0 then Alcotest.fail "shard never failed"
      else begin
        Unix.sleepf 0.005;
        wait_failed (tries - 1)
      end
  in
  wait_failed 1000;
  checki "exactly 3 crashes" 3 (Router.crashes t).(0);
  checki "restarted only within budget" 2 (Router.restarts t).(0);
  (* The failed shard still serves reads; writes reject as [Failed]. *)
  checkb "read on failed shard" true (Router.mem h 1);
  checkb "write rejected as failed" true
    (Router.insert h 7 7 = Error Shard_router.Failed);
  checkb "waited write rejected as failed" true
    (Router.insert_wait h 8 8 = Error Shard_router.Failed);
  Router.unregister h;
  checkb "failed shard shuts down cleanly" true
    (Router.shutdown t = Shard_router.Drained)

(* --- shutdown drain deadline: force-stop instead of blocking --- *)

let test_shutdown_drain_deadline () =
  (* Wedge recovery, not the updater: a crash puts the supervisor into a
     2 s backoff nap while accepted writes sit in the queue. A 100 ms
     drain deadline must force-stop — purging the backlog, aborting its
     completions, reporting the shard — instead of waiting out the
     backoff. *)
  let policy =
    {
      Supervisor.max_restarts = 5;
      backoff_base_ns = 2_000_000_000;
      backoff_max_ns = 2_000_000_000;
      reset_after_ns = 60_000_000_000;
    }
  in
  (* The crash trips the breaker; an immediate re-offer with generous
     probe slots keeps the post-crash writes admissible — this test is
     about the drain deadline, not the breaker schedule. *)
  let breaker =
    { Breaker.default_config with Breaker.open_base_ns = 1; probes = 16 }
  in
  let t =
    Router.create ~shards:1 ~queue_depth:64 ~max_clients:4 ~supervisor:policy
      ~breaker ()
  in
  let h = Router.register t in
  checkb "prefilled" true (Router.load h 1 1);
  Router.start t;
  Router.crash_updater t 0;
  let rec trigger tries =
    if (Router.crashes t).(0) < 1 then
      if tries = 0 then Alcotest.fail "crash never happened"
      else begin
        (match Router.insert h 10 10 with Ok () | Error _ -> ());
        Unix.sleepf 0.002;
        trigger (tries - 1)
      end
  in
  trigger 2000;
  (* The updater is down for ~2 s. Accepted writes now pile up. *)
  let accepted = ref 0 in
  for k = 20 to 28 do
    match Router.insert h k k with Ok () -> incr accepted | Error _ -> ()
  done;
  checkb "writes accepted while recovering" true (!accepted > 0);
  let waiter = Domain.spawn (fun () -> Router.insert_wait h 30 30) in
  Unix.sleepf 0.02 (* let the waited write enqueue *);
  (match Router.shutdown ~deadline_ns:100_000_000 t with
  | Shard_router.Drained -> Alcotest.fail "expected a forced shutdown"
  | Shard_router.Forced [ rep ] ->
      checki "report names the shard" 0 rep.Shard_router.shard;
      checkb "accepted writes reported lost" true (rep.Shard_router.lost > 0);
      checki "crashes in the report" 1 rep.Shard_router.crashes;
      checkb "chain exited via abort, not wedged" true
        (not rep.Shard_router.wedged)
  | Shard_router.Forced reps ->
      Alcotest.fail
        (Printf.sprintf "expected one report, got %d" (List.length reps)));
  (* The purge aborted the waited write's completion: its waiter
     unblocks with a typed reject rather than spinning forever. *)
  (match Domain.join waiter with
  | Error Shard_router.Shutdown -> ()
  | Error r ->
      Alcotest.fail ("unexpected reject " ^ Shard_router.reject_name r)
  | Ok _ -> Alcotest.fail "aborted write reported applied");
  checkb "reads after forced shutdown" true (Router.mem h 1);
  checkb "idempotent" true
    (match Router.shutdown t with
    | Shard_router.Forced _ -> true
    | Shard_router.Drained -> false);
  Router.unregister h

(* --- shutdown drains the backlog --- *)

let test_shutdown_drains_backlog () =
  let t = Router.create ~shards:4 ~queue_depth:2048 ~max_clients:2 () in
  let h = Router.register t in
  (* Enqueue before any updater exists, then start and immediately stop:
     every accepted operation must still be applied. *)
  let accepted = ref 0 in
  for k = 0 to 999 do
    if Router.insert h k k = Ok () then incr accepted
  done;
  Router.start t;
  checkb "drained" true (Router.shutdown t = Shard_router.Drained);
  checki "all accepted applied" !accepted (Router.drained t);
  checki "size matches" !accepted (Router.size t);
  Router.check t;
  Router.unregister h

(* --- open-loop generator --- *)

let test_open_loop_spec_validation () =
  checkb "defaults ok" true (ignore (Open_loop.spec ()); true);
  Alcotest.check_raises "clients"
    (Invalid_argument "Open_loop.spec: clients must be positive") (fun () ->
      ignore (Open_loop.spec ~clients:0 ()));
  Alcotest.check_raises "rate"
    (Invalid_argument "Open_loop.spec: rate must be positive") (fun () ->
      ignore (Open_loop.spec ~rate:0.0 ()));
  Alcotest.check_raises "retries"
    (Invalid_argument "Open_loop.spec: max_retries must be >= 0") (fun () ->
      ignore (Open_loop.spec ~max_retries:(-1) ()))

let test_open_loop_accounting () =
  (* A client that drops every delete and applies the rest: the harness
     must split the counts per op type and never lose an operation. *)
  let spec =
    Open_loop.spec ~clients:2 ~rate:4000.0 ~duration:0.2
      ~mix:(W.mix ~contains:50 ~insert:25 ~delete:25)
      ()
  in
  let r =
    Open_loop.run spec (fun _ ->
        {
          Open_loop.run_op =
            (fun op _ _ ->
              match op with
              | W.Delete -> Open_loop.Dropped
              | _ -> Open_loop.Applied true);
          finish = ignore;
        })
  in
  checkb "issued some" true (r.Open_loop.issued > 50);
  checki "conservation" r.Open_loop.issued
    (r.Open_loop.completed + r.Open_loop.dropped + r.Open_loop.exhausted
   + r.Open_loop.expired);
  checki "no retries without Busy" 0 r.Open_loop.retries;
  checkb "all drops are deletes" true
    (match r.Open_loop.dropped_by_op with
    | [ (W.Delete, n) ] -> n = r.Open_loop.dropped
    | [] -> r.Open_loop.dropped = 0
    | _ -> false);
  checkb "no delete latency recorded" true
    (not (List.mem_assoc W.Delete r.Open_loop.latency));
  List.iter
    (fun (_, h) ->
      checkb "histogram populated" true (Repro_workload.Latency.count h > 0))
    r.Open_loop.latency

let test_open_loop_retries () =
  (* Every op is Busy once, then applies: with a retry budget each
     completed op costs exactly one retry, and nothing is dropped. *)
  let spec =
    Open_loop.spec ~clients:2 ~rate:4000.0 ~duration:0.2 ~max_retries:3
      ~retry_base_ns:50_000 ()
  in
  let r =
    Open_loop.run spec (fun _ ->
        let busy_next = ref true in
        {
          Open_loop.run_op =
            (fun _ _ _ ->
              if !busy_next then begin
                busy_next := false;
                Open_loop.Busy
              end
              else begin
                busy_next := true;
                Open_loop.Applied true
              end);
          finish = ignore;
        })
  in
  checkb "issued some" true (r.Open_loop.issued > 50);
  checki "conservation" r.Open_loop.issued
    (r.Open_loop.completed + r.Open_loop.dropped + r.Open_loop.exhausted
   + r.Open_loop.expired);
  checki "nothing dropped" 0 r.Open_loop.dropped;
  (* One retry per completed op; ops cut off mid-backoff by the end of
     the run also counted their retry before going exhausted. *)
  checki "retries separately accounted" r.Open_loop.retries
    (r.Open_loop.completed + r.Open_loop.exhausted)

let test_open_loop_retry_budget_drops () =
  (* Always-Busy service, no deadline: the attempt budget runs out and
     the op is a terminal drop, with exactly max_retries retries. *)
  let spec =
    Open_loop.spec ~clients:1 ~rate:2000.0 ~duration:0.15 ~max_retries:2
      ~retry_base_ns:10_000 ()
  in
  let r =
    Open_loop.run spec (fun _ ->
        { Open_loop.run_op = (fun _ _ _ -> Open_loop.Busy); finish = ignore })
  in
  checkb "issued some" true (r.Open_loop.issued > 20);
  checki "conservation" r.Open_loop.issued
    (r.Open_loop.completed + r.Open_loop.dropped + r.Open_loop.exhausted
   + r.Open_loop.expired);
  checki "nothing completed" 0 r.Open_loop.completed;
  checkb "budget exhaustion drops" true (r.Open_loop.dropped > 0);
  (* Every terminal drop burned its full budget of 2 retries; ops cut
     off at the end of the run may have burned fewer. *)
  checkb "two retries per dropped op" true
    (r.Open_loop.retries >= 2 * r.Open_loop.dropped)

let test_open_loop_deadline_exhausts () =
  (* Always-Busy service under a deadline shorter than the first backoff:
     no retry is ever issued; every op exhausts its deadline — accounted
     separately from drops. *)
  let spec =
    Open_loop.spec ~clients:1 ~rate:2000.0 ~duration:0.15 ~max_retries:5
      ~retry_base_ns:1_000_000 ~deadline_ns:1 ()
  in
  let r =
    Open_loop.run spec (fun _ ->
        { Open_loop.run_op = (fun _ _ _ -> Open_loop.Busy); finish = ignore })
  in
  checkb "issued some" true (r.Open_loop.issued > 20);
  checki "every op exhausted its deadline" r.Open_loop.issued
    r.Open_loop.exhausted;
  checki "no terminal drops" 0 r.Open_loop.dropped;
  checki "no retries under a 1ns deadline" 0 r.Open_loop.retries

let test_open_loop_paces () =
  (* An instant-service run must issue roughly rate * duration ops — the
     generator is open-loop, not as-fast-as-possible. Generous bounds:
     the container has one core and sleep jitter. *)
  let spec = Open_loop.spec ~clients:2 ~rate:2000.0 ~duration:0.3 () in
  let r =
    Open_loop.run spec (fun _ ->
        {
          Open_loop.run_op = (fun _ _ _ -> Open_loop.Applied true);
          finish = ignore;
        })
  in
  let expected = 2000.0 *. r.Open_loop.wall in
  checkb
    (Printf.sprintf "issued %d near offered %.0f" r.Open_loop.issued expected)
    true
    (float_of_int r.Open_loop.issued > 0.5 *. expected
    && float_of_int r.Open_loop.issued < 1.5 *. expected)

let test_open_loop_expired_accounting () =
  (* A service that expires every third operation: [Expired] is terminal
     (never retried) and accounted separately, and the four-way
     conservation invariant holds exactly. *)
  let spec =
    Open_loop.spec ~clients:2 ~rate:4000.0 ~duration:0.2 ~max_retries:3
      ~retry_base_ns:10_000 ()
  in
  let r =
    Open_loop.run spec (fun _ ->
        let n = ref 0 in
        {
          Open_loop.run_op =
            (fun _ _ _ ->
              incr n;
              if !n mod 3 = 0 then Open_loop.Expired
              else Open_loop.Applied true);
          finish = ignore;
        })
  in
  checkb "issued some" true (r.Open_loop.issued > 50);
  checkb "expirations observed" true (r.Open_loop.expired > 0);
  checki "conservation" r.Open_loop.issued
    (r.Open_loop.completed + r.Open_loop.dropped + r.Open_loop.exhausted
   + r.Open_loop.expired);
  checki "expired is terminal: no retries" 0 r.Open_loop.retries;
  checki "expired is not dropped" 0 r.Open_loop.dropped

(* --- chaos: the seeded backlog-loss mutation --- *)

let test_chaos_mutation_caught () =
  let m =
    Mutation.arm [ "bug.router.forget_backlog" ] (fun () ->
        Chaos.mutation (module Dict.Citrus_epoch))
  in
  checkb "mutant caught" true m.Chaos.caught;
  checkb "the forgotten batch is visible as loss" true (m.Chaos.lost > 0)

let test_chaos_control_silent () =
  let m =
    Mutation.arm [] (fun () -> Chaos.mutation (module Dict.Citrus_epoch))
  in
  checkb "control silent" false m.Chaos.caught;
  checki "nothing lost" 0 m.Chaos.lost;
  checki "every write applied" m.Chaos.expected m.Chaos.final_size

(* --- chaos: the seeded breaker and deadline mutations --- *)

let test_chaos_breaker_mutation_caught () =
  let m =
    Mutation.arm [ "bug.breaker.never_open" ] (fun () ->
        Chaos.mutation_breaker (module Dict.Citrus_epoch))
  in
  checkb "crash fired" true m.Chaos.crash_seen;
  checkb "mutant never tripped" false m.Chaos.tripped;
  checkb "mutant admitted the post-crash write" false m.Chaos.rejected;
  checkb "mutant caught" true m.Chaos.caught

let test_chaos_breaker_control_silent () =
  let m =
    Mutation.arm [] (fun () ->
        Chaos.mutation_breaker (module Dict.Citrus_epoch))
  in
  checkb "crash fired" true m.Chaos.crash_seen;
  checkb "control tripped at crash" true m.Chaos.tripped;
  checkb "control rejected the post-crash write" true m.Chaos.rejected;
  checkb "control silent" false m.Chaos.caught

let test_chaos_deadline_mutation_caught () =
  let m =
    Mutation.arm [ "bug.router.skip_deadline" ] (fun () ->
        Chaos.mutation_deadline (module Dict.Citrus_epoch))
  in
  checkb "mutant caught" true m.Chaos.caught;
  checki "every expired write applied anyway" m.Chaos.queued m.Chaos.applied

let test_chaos_deadline_control_silent () =
  let m =
    Mutation.arm [] (fun () ->
        Chaos.mutation_deadline (module Dict.Citrus_epoch))
  in
  checkb "control silent" false m.Chaos.caught;
  checki "no expired write applied" 0 m.Chaos.applied

(* --- chaos: quick end-to-end run with both validators armed --- *)

let test_chaos_quick_armed () =
  Repro_sanitizer.Sanitizer.arm ();
  Repro_lockdep.Lockdep.arm ();
  Fun.protect
    ~finally:(fun () ->
      Repro_lockdep.Lockdep.disarm ();
      Repro_sanitizer.Sanitizer.disarm ())
    (fun () ->
      let c =
        Chaos.cfg ~shards:2 ~clients:2 ~rate:4000.0 ~duration:0.4
          ~key_range:1024 ~crashes_per_shard:1 ()
      in
      let r = Chaos.run (module Dict.Citrus_epoch) c in
      List.iter (fun f -> Alcotest.fail ("chaos: " ^ f)) r.Chaos.failures;
      checkb "writes accepted" true (r.Chaos.accepted > 0);
      checkb "crashes delivered" true
        (Array.for_all (fun n -> n >= 1) r.Chaos.crashes));
  checki "no lockdep violations" 0 (Repro_lockdep.Lockdep.violations ());
  checki "no sanitizer violations" 0 (Repro_sanitizer.Sanitizer.violations ())

(* --- end-to-end serve runs --- *)

let test_serve_end_to_end () =
  let c =
    Serve.cfg ~shards:3 ~clients:2 ~rate:3000.0 ~duration:0.25
      ~key_range:512 ~write_mode:Serve.Wait ()
  in
  let r = Serve.run ~observe:true (module Dict.Citrus_epoch) c in
  checkb "completed ops" true (r.Serve.load.Open_loop.completed > 0);
  checki "queues per shard" 3 (Array.length r.Serve.queues);
  checkb "writes drained" true (r.Serve.drained_total > 0);
  checkb "final size positive" true (r.Serve.final_size > 0);
  checkb "clean shutdown" true (r.Serve.shutdown = Shard_router.Drained);
  (* In Wait mode every accepted write resolves, so client-side completed
     writes = accepted = drained_total. *)
  let client_writes =
    List.fold_left
      (fun acc (op, h) ->
        if op = W.Contains then acc else acc + Repro_workload.Latency.count h)
      0 r.Serve.load.Open_loop.latency
  in
  checki "every accepted write applied" client_writes r.Serve.drained_total;
  checkb "metrics captured" true (r.Serve.metrics <> []);
  (* The JSON point must carry the schema-v1 latency fields per op, and
     the new retry/shutdown accounting. *)
  let doc = Serve.report [ r ] in
  let open Repro_obs.Json in
  let point =
    match
      Option.bind (member "experiments" doc) to_list_opt |> Option.get
    with
    | [ e ] ->
        (match Option.bind (member "points" e) to_list_opt with
        | Some [ p ] -> p
        | _ -> Alcotest.fail "expected one point")
    | _ -> Alcotest.fail "expected one experiment"
  in
  let lat = Option.get (member "latency_ns" point) in
  List.iter
    (fun op ->
      match member op lat with
      | Some s ->
          List.iter
            (fun f ->
              checkb
                (Printf.sprintf "%s has %s" op f)
                true
                (member f s <> None))
            [ "p50_ns"; "p99_ns"; "p999_ns" ]
      | None -> Alcotest.fail (op ^ " missing from latency_ns"))
    [ "contains"; "insert"; "delete" ];
  let ops = Option.get (member "ops" point) in
  List.iter
    (fun f -> checkb (f ^ " present") true (member f ops <> None))
    [ "retries"; "deadline_exhausted" ];
  checkb "shutdown mode reported" true
    (match Option.bind (member "shutdown" point) (member "mode") with
    | Some (String "drained") -> true
    | _ -> false);
  checkb "health reported per shard" true
    (match Option.bind (member "health" point) to_list_opt with
    | Some l -> List.length l = 3
    | None -> false)

let test_serve_armed () =
  (* The serve path under both validators: lockdep checks the queue-lock
     protocol (leaf lock, no tree-lock nesting), the sanitizer shadows
     every reclamation. Any violation raises and fails the test. *)
  Repro_sanitizer.Sanitizer.arm ();
  Repro_lockdep.Lockdep.arm ();
  Fun.protect
    ~finally:(fun () ->
      Repro_lockdep.Lockdep.disarm ();
      Repro_sanitizer.Sanitizer.disarm ())
    (fun () ->
      let c =
        Serve.cfg ~shards:2 ~clients:2 ~rate:2000.0 ~duration:0.2
          ~key_range:256 ~write_mode:Serve.Wait ()
      in
      let r = Serve.run (module Dict.Citrus_epoch) c in
      checkb "ops flowed" true (r.Serve.load.Open_loop.completed > 0));
  checki "no lockdep violations" 0 (Repro_lockdep.Lockdep.violations ());
  checki "no sanitizer violations" 0 (Repro_sanitizer.Sanitizer.violations ())

let () =
  Alcotest.run "server"
    [
      ( "shard-router",
        [
          Alcotest.test_case "hash distribution" `Quick
            test_shard_distribution;
          Alcotest.test_case "shard_of deterministic" `Quick
            test_shard_of_deterministic;
          Alcotest.test_case "FIFO per shard via router" `Quick
            test_fifo_per_shard_through_router;
          Alcotest.test_case "typed rejects: overload and full" `Quick
            test_typed_rejects;
          Alcotest.test_case "rejects after shutdown" `Quick
            test_rejected_after_shutdown;
          Alcotest.test_case "shutdown drains backlog" `Quick
            test_shutdown_drains_backlog;
          Alcotest.test_case "shutdown applies pre-start backlog" `Quick
            test_shutdown_applies_pre_start_backlog;
          Alcotest.test_case "shutdown drain deadline forces" `Quick
            test_shutdown_drain_deadline;
          Alcotest.test_case "deadline dead on arrival" `Quick
            test_deadline_dead_on_arrival;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "trip, probe, close" `Quick
            test_breaker_trip_probe_close;
          Alcotest.test_case "window rotation" `Quick
            test_breaker_window_rotation;
          Alcotest.test_case "jitter deterministic" `Quick
            test_breaker_jitter_deterministic;
          Alcotest.test_case "never-open mutant" `Quick
            test_breaker_never_open_mutant;
          Alcotest.test_case "config validation" `Quick
            test_breaker_config_validation;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "health state machine" `Quick
            test_health_state_machine;
          Alcotest.test_case "health pressure latch" `Quick
            test_health_pressure_latch;
          Alcotest.test_case "crash restart, validators armed" `Quick
            test_supervisor_restart_armed;
          Alcotest.test_case "budget exhaustion fails shard" `Quick
            test_budget_exhaustion_fails_shard;
          Alcotest.test_case "failed shard unblocks its waiter" `Quick
            test_failed_shard_unblocks_waiter;
        ] );
      ( "mod-queue",
        [
          Alcotest.test_case "FIFO drain order" `Quick test_fifo_drain;
          Alcotest.test_case "completion wake-up" `Quick
            test_completion_wakeup;
          Alcotest.test_case "completion abort" `Quick test_completion_abort;
          Alcotest.test_case "completions through updater" `Quick
            test_completion_through_updater;
          Alcotest.test_case "purge aborts completions" `Quick
            test_purge_aborts_completions;
          Alcotest.test_case "close rejects enqueue" `Quick
            test_close_rejects_enqueue;
          Alcotest.test_case "staleness watchdog" `Quick test_stall_watchdog;
        ] );
      ( "open-loop",
        [
          Alcotest.test_case "spec validation" `Quick
            test_open_loop_spec_validation;
          Alcotest.test_case "outcome accounting" `Quick
            test_open_loop_accounting;
          Alcotest.test_case "retry accounting" `Quick test_open_loop_retries;
          Alcotest.test_case "retry budget drops" `Quick
            test_open_loop_retry_budget_drops;
          Alcotest.test_case "deadline exhaustion" `Quick
            test_open_loop_deadline_exhausts;
          Alcotest.test_case "paces to offered load" `Quick
            test_open_loop_paces;
          Alcotest.test_case "expired accounting" `Quick
            test_open_loop_expired_accounting;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "backlog-loss mutation caught" `Quick
            test_chaos_mutation_caught;
          Alcotest.test_case "control silent" `Quick test_chaos_control_silent;
          Alcotest.test_case "breaker mutation caught" `Quick
            test_chaos_breaker_mutation_caught;
          Alcotest.test_case "breaker control silent" `Quick
            test_chaos_breaker_control_silent;
          Alcotest.test_case "deadline mutation caught" `Quick
            test_chaos_deadline_mutation_caught;
          Alcotest.test_case "deadline control silent" `Quick
            test_chaos_deadline_control_silent;
          Alcotest.test_case "quick run, validators armed" `Quick
            test_chaos_quick_armed;
        ] );
      ( "serve",
        [
          Alcotest.test_case "end to end with JSON" `Quick
            test_serve_end_to_end;
          Alcotest.test_case "lockdep + sanitizer armed" `Quick
            test_serve_armed;
        ] );
    ]
