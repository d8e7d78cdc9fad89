(* Benchmark harness regenerating every evaluation figure of the paper
   (Arbel & Attiya, PODC 2014, Section 5), the committed BENCH_*.json
   reports, and the ablations. EXPERIMENTS.md has the index, the expected
   shapes, and the audit of which figure, committed report or CI gate
   each command feeds.

     dune exec bench/main.exe                 -- fig8..skew, scaled down
     dune exec bench/main.exe -- fig8         -- RCU implementation impact
     dune exec bench/main.exe -- fig9         -- single-writer workload
     dune exec bench/main.exe -- fig10        -- the 2x3 throughput grid
     dune exec bench/main.exe -- ablation     -- restarts & grace periods
     dune exec bench/main.exe -- contention   -- throughput vs update share
     dune exec bench/main.exe -- skew         -- Zipfian key popularity
     dune exec bench/main.exe -- serve        -- BENCH_serve.json
     dune exec bench/main.exe -- callrcu      -- BENCH_fig9.json
     dune exec bench/main.exe -- gp           -- BENCH_gp.json
     dune exec bench/main.exe -- fig10 --paper  -- full paper-scale runs

   The container runs on a single core, so the thread sweep exercises
   algorithmic serialization (lock hold times, grace-period waits, retries)
   rather than parallel speedup; the *relative ranking* of the structures
   is the reproduced result. *)

module W = Repro_workload.Workload
module Runner = Repro_workload.Runner
module Report = Repro_workload.Report
module Json_report = Repro_workload.Json_report
module Json = Repro_obs.Json
module Dict = Repro_dict.Dict

(* JSON collection: every sweep data point (with its sampled latency and
   serialization metrics) is accumulated here; with --json FILE they are
   written as one schema-versioned report. *)
let collected : (string * Json.t list) list ref = ref []

let collect name points =
  if points <> [] then collected := (name, List.rev points) :: !collected

type scale = {
  threads : int list;
  duration : float;
  repeats : int;
  small_range : int;
  large_range : int;
}

let default_scale =
  {
    threads = [ 1; 2; 4; 8 ];
    duration = 0.3;
    repeats = 1;
    small_range = 8_192;
    large_range = 65_536;
  }

(* The paper's setup: 5-second runs, 5 repetitions, key ranges 2*10^5 and
   2*10^6, up to 64 threads. *)
let paper_scale =
  {
    threads = [ 1; 4; 16; 64 ];
    duration = 5.0;
    repeats = 5;
    small_range = 200_000;
    large_range = 2_000_000;
  }

let sweep scale ~title ~role ~key_range dicts =
  let jpoints = ref [] in
  let series =
    List.map
      (fun (module D : Dict.DICT) ->
        let points =
          List.map
            (fun threads ->
              let cfg =
                W.config ~key_range ~role ~threads ~duration:scale.duration ()
              in
              let r = Runner.run_avg ~repeats:scale.repeats (module D) cfg in
              jpoints := Json_report.point_json cfg r :: !jpoints;
              (threads, r.Runner.throughput))
            scale.threads
        in
        { Report.label = D.name; points })
      dicts
  in
  collect title !jpoints;
  Report.print_table ~title ~threads:scale.threads series

(* Median of repeated runs by [key]: the A/B tables compare ratios on a
   noisy box, where a single interval wobbles +/-10%. *)
let median key runs =
  let sorted = List.sort (fun a b -> compare (key a) (key b)) runs in
  List.nth sorted (List.length sorted / 2)

(* --- Figure 8: Citrus over stock URCU vs the paper's new RCU --- *)

let fig8 scale =
  Format.printf
    "@.Figure 8: impact of the RCU implementation on Citrus@.\
     (50%% contains, key range %d; the urcu curve should collapse as@.\
     updaters serialize on the global grace-period lock)@."
    scale.small_range;
  sweep scale ~title:"fig8: citrus vs citrus-urcu (50% contains)"
    ~role:(W.Uniform W.contains_50) ~key_range:scale.small_range
    [
      (module Dict.Citrus_epoch);
      (module Dict.Citrus_urcu);
      (module Dict.Citrus_qsbr);
    ]

(* --- Figure 9: single writer, readers otherwise --- *)

let fig9 scale =
  Format.printf
    "@.Figure 9: single-writer workload (one thread 50%% insert / 50%%@.\
     delete, every other thread 100%% contains) - the setup that most@.\
     favours the coarse-grained RCU trees@.";
  List.iter
    (fun (label, range) ->
      sweep scale
        ~title:(Printf.sprintf "fig9: single writer, key range %s" label)
        ~role:(W.Single_writer W.update_only)
        ~key_range:range Dict.paper_set)
    [
      ("small", scale.small_range);
      ("large", scale.large_range);
    ]

(* --- Figure 10: the 2x3 grid --- *)

let fig10 scale =
  Format.printf
    "@.Figure 10: throughput under three operation distributions and two@.\
     key ranges. Expected shapes: 100%% contains favours the RCU trees;@.\
     at 98%% contains red-black and bonsai stop scaling (global write@.\
     lock); at 50%% contains Citrus pays synchronize_rcu but keeps pace@.\
     with the fine-grained trees.@.";
  List.iter
    (fun (range_label, range) ->
      List.iter
        (fun (mix_label, mix) ->
          sweep scale
            ~title:
              (Printf.sprintf "fig10: %s contains, key range %s" mix_label
                 range_label)
            ~role:(W.Uniform mix) ~key_range:range Dict.paper_set)
        [
          ("100%", W.read_only);
          ("98%", W.contains_98);
          ("50%", W.contains_50);
        ])
    [
      ("small", scale.small_range);
      ("large", scale.large_range);
    ]

(* --- Skewed access (Zipfian) extension --- *)

let skew scale =
  Format.printf
    "@.Skewed access: throughput under Zipfian key popularity (50%%@.\
     contains, %d threads, key range %d). Hot keys concentrate lock and@.\
     restart contention on a few nodes; structures whose updates touch@.\
     more nodes (balancing, towers) suffer more.@."
    (List.fold_left max 1 scale.threads)
    scale.small_range;
  let threads = List.fold_left max 1 scale.threads in
  let jpoints = ref [] in
  let dists =
    [
      ("uniform", W.Uniform_keys);
      ("zipf-0.5", W.Zipf 0.5);
      ("zipf-0.9", W.Zipf 0.9);
      ("zipf-0.99", W.Zipf 0.99);
    ]
  in
  Format.printf "%-14s" "distribution";
  List.iter (fun (l, _) -> Format.printf " %9s" l) dists;
  Format.printf "@.";
  List.iter
    (fun (module D : Dict.DICT) ->
      Format.printf "%-14s" D.name;
      List.iter
        (fun (_, dist) ->
          let cfg =
            W.config ~key_range:scale.small_range ~key_dist:dist ~threads
              ~duration:scale.duration ()
          in
          let r = Runner.run_avg ~repeats:scale.repeats (module D) cfg in
          jpoints := Json_report.point_json cfg r :: !jpoints;
          Format.printf " %9s" (Report.si r.Runner.throughput))
        dists;
      Format.printf "@.")
    Dict.paper_set;
  collect "skew: Zipfian key popularity (50% contains)" !jpoints

(* --- Grace-period coalescing microbenchmark --- *)

type gp_point = {
  gp_flavour : string;
  gp_syncers : int;
  gp_coalescing : bool;
  gp_sync_per_s : float;
  gp_returns : int; (* synchronize calls that returned (grace_periods) *)
  gp_coalesced : int; (* of which piggybacked on another's grace period *)
}

let gp_readers = 2

(* Slot-registry width for the benchmark instances. A synchronize scan
   walks every registry slot, so a wide registry puts the scan in the
   CPU-bound regime the coalescing machinery targets: the cost of a grace
   period is the walk itself, not waiting out a reader — which is also the
   regime of a large deployment (many registered threads, short critical
   sections). In the wait-bound regime concurrent scans overlap and share
   their waits, so coalescing saves CPU rather than wall-clock and a
   single-core A/B cannot resolve it. *)
let gp_capacity = 262_144

(* One measured interval: [syncers] domains calling synchronize back to
   back against [gp_readers] domains taking brief read-side critical
   sections (in-section ~1% of the time, so scans only occasionally wait),
   with coalescing forced on or off via the process-global switch. *)
let gp_measure (module R : Repro_rcu.Rcu.S) ~syncers ~duration ~coalescing =
  Repro_rcu.Rcu.Gp.set_coalescing coalescing;
  Repro_sync.Metrics.reset ();
  let r = R.create ~max_threads:gp_capacity () in
  let stop = Atomic.make false in
  let bar = Repro_sync.Barrier.create (syncers + gp_readers + 1) in
  let readers =
    List.init gp_readers (fun _ ->
        Domain.spawn (fun () ->
            let th = R.register r in
            Repro_sync.Barrier.wait bar;
            while not (Atomic.get stop) do
              R.read_lock th;
              for _ = 1 to 20 do
                Domain.cpu_relax ()
              done;
              R.read_unlock th;
              (* Sleep, don't spin, between sections: the readers' job here
                 is to exist (populating slots and occasionally blocking a
                 scan), not to compete with the synchronizers for the
                 core. Their frequent wakes double as the preemption
                 source that lets woken piggybackers slip in behind an
                 in-flight scan. *)
              Unix.sleepf 200e-6
            done;
            R.unregister th))
  in
  let syncer_domains =
    List.init syncers (fun _ ->
        Domain.spawn (fun () ->
            Repro_sync.Barrier.wait bar;
            let n = ref 0 in
            while not (Atomic.get stop) do
              R.synchronize r;
              incr n
            done;
            !n))
  in
  Repro_sync.Barrier.wait bar;
  let t0 = Unix.gettimeofday () in
  Unix.sleepf duration;
  Atomic.set stop true;
  let total =
    List.fold_left (fun acc d -> acc + Domain.join d) 0 syncer_domains
  in
  let wall = Unix.gettimeofday () -. t0 in
  List.iter Domain.join readers;
  let snap = Repro_sync.Metrics.snapshot () in
  let get k = try int_of_float (List.assoc k snap) with Not_found -> 0 in
  {
    gp_flavour = R.name;
    gp_syncers = syncers;
    gp_coalescing = coalescing;
    gp_sync_per_s = float_of_int total /. wall;
    gp_returns = get "grace_periods";
    gp_coalesced = get "sync_coalesced";
  }

let gp_point_json p =
  Json.Obj
    [
      ("flavour", Json.String p.gp_flavour);
      ("syncers", Json.Int p.gp_syncers);
      ("readers", Json.Int gp_readers);
      ("coalescing", Json.Bool p.gp_coalescing);
      ("sync_per_s", Json.Float p.gp_sync_per_s);
      ("grace_periods", Json.Int p.gp_returns);
      ("sync_coalesced", Json.Int p.gp_coalesced);
    ]

let gp_bench scale quick json =
  let duration = if quick then 0.05 else Float.max scale.duration 1.0 in
  let sweeps = if quick then [ 2; 4 ] else scale.threads in
  let reps = if quick then 1 else max scale.repeats 3 in
  let measure (module R : Repro_rcu.Rcu.S) ~syncers ~coalescing =
    median
      (fun p -> p.gp_sync_per_s)
      (List.init reps (fun _ ->
           gp_measure (module R) ~syncers ~duration ~coalescing))
  in
  Format.printf
    "@.Grace-period coalescing: N domains calling synchronize back to@.\
     back against %d readers, with the coalescing machinery on vs off.@.\
     Expected: the uncoalesced rate decays with N (every call drives its@.\
     own scan) while the coalesced rate holds or grows (calls piggyback@.\
     on grace periods already in flight).@."
    gp_readers;
  Format.printf "%-10s %8s %14s %14s %8s %11s@." "flavour" "syncers"
    "plain/s" "coalesced/s" "speedup" "coalesced%";
  let points = ref [] in
  Fun.protect
    ~finally:(fun () ->
      Repro_rcu.Rcu.Gp.set_coalescing true;
      Repro_sync.Metrics.reset ())
    (fun () ->
      List.iter
        (fun (_, (module R : Repro_rcu.Rcu.S)) ->
          List.iter
            (fun syncers ->
              let off = measure (module R) ~syncers ~coalescing:false in
              let on_ = measure (module R) ~syncers ~coalescing:true in
              points := on_ :: off :: !points;
              let speedup = on_.gp_sync_per_s /. Float.max off.gp_sync_per_s 1. in
              let frac =
                100.
                *. float_of_int on_.gp_coalesced
                /. float_of_int (max on_.gp_returns 1)
              in
              Format.printf "%-10s %8d %14s %14s %7.2fx %10.1f%%@." R.name
                syncers
                (Report.si off.gp_sync_per_s)
                (Report.si on_.gp_sync_per_s)
                speedup frac)
            sweeps)
        Repro_rcu.Rcu.implementations);
  Option.iter
    (fun file ->
      Json_report.write file
        (Json_report.report
           ~meta:
             [
               ( "meta",
                 Json.Obj
                   [
                     ("benchmark", Json.String "gp");
                     ("readers", Json.Int gp_readers);
                     ("duration_s", Json.Float duration);
                   ] );
             ]
           [
             ( "gp: grace-period coalescing",
               List.rev_map gp_point_json !points );
           ]))
    json

(* --- Ablations --- *)

let ablation scale =
  Format.printf
    "@.Ablation A1: Citrus validation restarts and two-child deletes@.\
     (the cost drivers of the design: restart rate shows tag/mark@.\
     validation work, two-child deletes count grace periods paid)@.";
  Format.printf "%8s %12s %12s %12s %12s %14s@." "threads" "ops/s" "restarts"
    "1child-del" "2child-del" "grace-periods";
  let module T = Repro_citrus.Citrus_int.Epoch in
  List.iter
    (fun threads ->
      let key_range = 1024 in
      let t = T.create ~max_threads:(threads + 1) () in
      let setup = T.register t in
      for k = 0 to (key_range / 2) - 1 do
        ignore (T.insert setup (2 * k) k)
      done;
      let stop = Atomic.make false in
      let bar = Repro_sync.Barrier.create (threads + 1) in
      let ops = Repro_sync.Stats.create "ops" in
      let workers =
        List.init threads (fun i ->
            Domain.spawn (fun () ->
                let h = T.register t in
                let rng = Repro_sync.Rng.create (Int64.of_int (i + 1)) in
                Repro_sync.Barrier.wait bar;
                let n = ref 0 in
                while not (Atomic.get stop) do
                  let k = Repro_sync.Rng.int rng key_range in
                  (match Repro_sync.Rng.int rng 4 with
                  | 0 -> ignore (T.insert h k k)
                  | 1 -> ignore (T.delete h k)
                  | _ -> ignore (T.mem h k));
                  incr n
                done;
                Repro_sync.Stats.add ops i !n;
                T.unregister h))
      in
      Repro_sync.Barrier.wait bar;
      Unix.sleepf scale.duration;
      Atomic.set stop true;
      List.iter Domain.join workers;
      let stats = T.stats t in
      let get name = try List.assoc name stats with Not_found -> 0 in
      Format.printf "%8d %12s %12d %12d %12d %14d@." threads
        (Report.si
           (float_of_int (Repro_sync.Stats.read ops) /. scale.duration))
        (get "restarts")
        (get "deletes_one_child")
        (get "deletes_two_children")
        (get "grace_periods");
      T.unregister setup)
    scale.threads;
  Format.printf
    "@.Ablation A2: grace-period cost - delete/insert-only workload@.\
     (every two-child delete waits for readers; epoch-rcu vs urcu)@.";
  sweep scale ~title:"ablation: update-only (50% insert / 50% delete)"
    ~role:(W.Uniform W.update_only)
    ~key_range:1024
    [ (module Dict.Citrus_epoch); (module Dict.Citrus_urcu) ];
  Format.printf
    "@.Ablation A3: maintenance rebalancing (the paper's future work #1).@.\
     Keys arrive in ascending order - the worst case for an unbalanced@.\
     tree. One extra domain runs relativistic maintenance rotations@.\
     concurrently with the updaters and readers.@.";
  Format.printf "%14s %10s %8s %10s@." "configuration" "lookups/s" "height"
    "rotations";
  let module T = Repro_citrus.Citrus_int.Epoch in
  List.iter
    (fun maintained ->
      let t = T.create ~max_threads:8 () in
      let n_keys = 20_000 in
      let stop = Atomic.make false in
      let maintenance =
        if maintained then
          Some
            (Domain.spawn (fun () ->
                 let h = T.register t in
                 while not (Atomic.get stop) do
                   if T.maintenance_pass h = 0 then Unix.sleepf 0.001
                 done;
                 T.unregister h))
        else None
      in
      let inserter =
        Domain.spawn (fun () ->
            let h = T.register t in
            for k = 1 to n_keys do
              ignore (T.insert h k k)
            done;
            T.unregister h)
      in
      let lookups = Atomic.make 0 in
      let reader =
        Domain.spawn (fun () ->
            let h = T.register t in
            let rng = Repro_sync.Rng.create 5L in
            while not (Atomic.get stop) do
              ignore (T.mem h (1 + Repro_sync.Rng.int rng n_keys));
              Atomic.incr lookups
            done;
            T.unregister h)
      in
      Domain.join inserter;
      (* Measure lookups only after the insert phase (and in the
         maintained configuration, after the tree has settled). *)
      let before = Atomic.get lookups in
      let t0 = Unix.gettimeofday () in
      Unix.sleepf scale.duration;
      let measured = Atomic.get lookups - before in
      let wall = Unix.gettimeofday () -. t0 in
      Atomic.set stop true;
      Domain.join reader;
      (match maintenance with Some d -> Domain.join d | None -> ());
      let s = T.stats t in
      Format.printf "%14s %10s %8d %10d@."
        (if maintained then "maintained" else "plain")
        (Report.si (float_of_int measured /. wall))
        (T.height t)
        (List.assoc "rotations" s))
    [ false; true ]

(* Update-contention sweep: the paper notes the URCU collapse "was observed
   under different update contention"; this regenerates that observation. *)
let contention scale =
  Format.printf
    "@.Update-contention sweep at %d threads, key range %d: throughput as@.\
     the update fraction grows (papers' claim: the URCU gap widens with@.\
     contention, the epoch-RCU Citrus degrades gracefully).@."
    (List.fold_left max 1 scale.threads)
    scale.small_range;
  let threads = List.fold_left max 1 scale.threads in
  let jpoints = ref [] in
  Format.printf "%-14s" "updates%";
  List.iter (fun u -> Format.printf " %9d" u) [ 0; 2; 10; 20; 50; 100 ];
  Format.printf "@.";
  List.iter
    (fun (module D : Dict.DICT) ->
      Format.printf "%-14s" D.name;
      List.iter
        (fun updates ->
          let mix =
            W.mix ~contains:(100 - updates)
              ~insert:((updates / 2) + (updates mod 2))
              ~delete:(updates / 2)
          in
          let cfg =
            W.config ~key_range:scale.small_range ~role:(W.Uniform mix)
              ~threads ~duration:scale.duration ()
          in
          let r = Runner.run_avg ~repeats:scale.repeats (module D) cfg in
          jpoints := Json_report.point_json cfg r :: !jpoints;
          Format.printf " %9s" (Report.si r.Runner.throughput))
        [ 0; 2; 10; 20; 50; 100 ];
      Format.printf "@.")
    [
      (module Dict.Citrus_epoch);
      (module Dict.Citrus_urcu);
      (module Dict.Nm);
      (module Dict.Skiplist);
    ];
  collect "contention: throughput vs update fraction" !jpoints

(* Serving benchmark: the sharded service under saturating open-loop
   load, sweeping the shard count. The interesting number is aggregate
   write throughput (operations drained per second): with one shard every
   grace period a two-child delete pays stalls the whole write path,
   while with N shards only the paying shard stalls and the other
   updaters keep draining. See SERVING.md. *)
let serve_bench scale quick json =
  let module Serve = Repro_server.Serve in
  let module Open_loop = Repro_workload.Open_loop in
  let duration = if quick then 0.2 else Float.max scale.duration 1.0 in
  let shard_counts = if quick then [ 1; 2 ] else [ 1; 4; 8 ] in
  (* The configuration that makes the unsharded baseline grace-period
     bound, so sharding has something real to fix: citrus-urcu (whose
     synchronize pays reader flips, the paper's expensive flavour), a
     deep tree (long traversals = long read sections = long grace
     periods), an update-heavy mix (every two-child delete pays a grace
     period), and an offered load far above capacity so the queues never
     run dry — drained/s measures service capacity. *)
  let mix = W.mix ~contains:30 ~insert:35 ~delete:35 in
  let key_range = 32_768 in
  let rate = if quick then 50_000.0 else 400_000.0 in
  Format.printf
    "@.Serving: open-loop load on the sharded citrus-urcu service (async@.\
     writes, %s offered ops/s, 30%%c/35%%i/35%%d on %d keys), sweeping@.\
     shards. Shard 1 is the unsharded baseline: one tree, one updater,@.\
     every two-child-delete grace period stalls the entire write path;@.\
     with N shards a grace period stalls only its own shard and the@.\
     other updaters keep draining.@."
    (Report.si rate) key_range;
  Format.printf "%7s %12s %12s %12s %10s %14s %14s@." "shards" "offered/s"
    "achieved/s" "drained/s" "drops" "contains-p99" "write-p99";
  let results =
    List.map
      (fun shards ->
        let c =
          Serve.cfg ~shards ~clients:4 ~queue_depth:4096 ~drain_batch:64
            ~rate ~duration ~mix ~key_range ~write_mode:Serve.Async ()
        in
        let r = Serve.run (module Dict.Citrus_urcu) c in
        let l = r.Serve.load in
        let pct op =
          match List.assoc_opt op l.Open_loop.latency with
          | Some h ->
              (Repro_workload.Latency.summarize h).Repro_workload.Latency.p99
          | None -> 0.
        in
        Format.printf "%7d %12s %12s %12s %10d %12.0fns %12.0fns@." shards
          (Report.si l.Open_loop.offered)
          (Report.si l.Open_loop.achieved)
          (Report.si r.Serve.write_throughput)
          l.Open_loop.dropped (pct W.Contains) (pct W.Insert);
        r)
      shard_counts
  in
  (match (results, List.rev results) with
  | one :: _, many :: _ when one != many ->
      Format.printf
        "@.aggregate write throughput: %s/s at %d shards vs %s/s at %d \
         shards (%.2fx)@."
        (Report.si many.Serve.write_throughput)
        many.Serve.cfg.Serve.shards
        (Report.si one.Serve.write_throughput)
        one.Serve.cfg.Serve.shards
        (many.Serve.write_throughput /. Float.max one.Serve.write_throughput 1.)
  | _ -> ());
  Option.iter
    (fun file ->
      Json_report.write file
        (Json_report.report
           [
             ( "serve: write throughput vs shards",
               List.map Serve.point_json results );
           ]))
    json

(* --- call_rcu: inline grace-period waits vs background reclamation ---

   A/B over the process-global [Reclaimer] switch, three experiments in
   one schema-v1 report (committed as BENCH_fig9.json):

   1. fig9-style write-heavy updater throughput on Citrus: the
      single-writer update-only role, where every two-child delete pays
      a grace period inline — or hands it to the reclaimer and moves on.
   2. The grace-period-bound serving configuration (citrus-urcu, one
      shard, async writes): write p99 is dominated by the updater
      stalling on synchronize mid-drain; call_rcu takes that stall off
      the drain loop.
   3. The read side, which must NOT change: read_lock/read_unlock cycle
      rate over the (cache-line-padded) reader-slot registry, sweeping
      reader counts so false sharing on the slot array would show as a
      super-linear per-cycle cost. *)

let callrcu_ab on f =
  let module Rec = Repro_rcu.Reclaimer in
  let was = Rec.call_rcu_enabled () in
  Rec.set_call_rcu on;
  Fun.protect ~finally:(fun () -> Rec.set_call_rcu was) f

let callrcu_label on = if on then "call_rcu" else "inline"

let callrcu_fig9 ~duration ~reps ~threads_list =
  let key_range = 8_192 in
  Format.printf
    "@.call_rcu A: fig9-style write-heavy Citrus (single writer, 50%%@.\
     insert / 50%% delete, other threads 100%% contains, %d keys).@.\
     updater/s counts the writer's operations only — the thread whose@.\
     grace-period waits call_rcu removes. The more readers, the longer@.\
     each grace period and the bigger the updater's win: the reclaimer@.\
     amortizes one wait over a whole batch of retirements where the@.\
     inline updater pays one per two-child delete.@."
    key_range;
  Format.printf "%-12s %8s %10s %12s %12s %12s %12s@." "structure" "threads"
    "config" "ops/s" "updater/s" "gps" "enqueued";
  List.concat_map
    (fun (module D : Dict.DICT) ->
      List.concat_map
        (fun threads ->
          let cfg =
            W.config ~key_range
              ~role:(W.Single_writer W.update_only)
              ~threads ~duration ()
          in
          List.map
            (fun on ->
              let runs =
                List.init reps (fun i ->
                    callrcu_ab on (fun () ->
                        Runner.run
                          (module D)
                          { cfg with seed = Int64.of_int (97 + i) }))
              in
              let updater r =
                float_of_int (r.Runner.insert_ops + r.Runner.delete_ops)
                /. r.Runner.wall
              in
              let r = median updater runs in
              let met k =
                try List.assoc k r.Runner.metrics with Not_found -> 0.
              in
              Format.printf "%-12s %8d %10s %12s %12s %12.0f %12.0f@." D.name
                threads (callrcu_label on)
                (Report.si r.Runner.throughput)
                (Report.si (updater r))
                (met "grace_periods")
                (met "call_rcu_enqueued");
              Json.Obj
                [
                  ("structure", Json.String D.name);
                  ("config", Json.String (callrcu_label on));
                  ("threads", Json.Int threads);
                  ("key_range", Json.Int key_range);
                  ("duration_s", Json.Float duration);
                  ("total_ops_per_s", Json.Float r.Runner.throughput);
                  ("updater_ops_per_s", Json.Float (updater r));
                  ("insert_ops", Json.Int r.Runner.insert_ops);
                  ("delete_ops", Json.Int r.Runner.delete_ops);
                  ("grace_periods", Json.Float (met "grace_periods"));
                  ("call_rcu_enqueued", Json.Float (met "call_rcu_enqueued"));
                  ("reclaim_batches", Json.Float (met "reclaim_batches"));
                ])
            [ false; true ])
        threads_list)
    [ (module Dict.Citrus_urcu); (module Dict.Citrus_epoch) ]

let callrcu_serve ~duration ~reps ~rate =
  let module Serve = Repro_server.Serve in
  let module Open_loop = Repro_workload.Open_loop in
  let mix = W.mix ~contains:30 ~insert:35 ~delete:35 in
  let key_range = 32_768 in
  Format.printf
    "@.call_rcu B: the grace-period-bound serving configuration@.\
     (citrus-urcu, 1 shard, async writes, %s offered ops/s,@.\
     30%%c/35%%i/35%%d on %d keys): write p99 is queueing delay behind@.\
     an updater that stalls on synchronize mid-drain.@."
    (Report.si rate) key_range;
  Format.printf "%10s %12s %12s %14s %14s@." "config" "achieved/s" "drained/s"
    "write-p50" "write-p99";
  List.map
    (fun on ->
      let runs =
        List.init reps (fun _ ->
            callrcu_ab on (fun () ->
                let c =
                  Serve.cfg ~shards:1 ~clients:4 ~queue_depth:4096
                    ~drain_batch:64 ~rate ~duration ~mix ~key_range
                    ~write_mode:Serve.Async ()
                in
                Serve.run (module Dict.Citrus_urcu) c))
      in
      let summary r op =
        match List.assoc_opt op r.Serve.load.Open_loop.latency with
        | Some h -> Repro_workload.Latency.summarize h
        | None ->
            Repro_workload.Latency.summarize (Repro_workload.Latency.histogram ())
      in
      let p99 r = (summary r W.Insert).Repro_workload.Latency.p99 in
      let r = median p99 runs in
      let ins = summary r W.Insert in
      Format.printf "%10s %12s %12s %12.0fns %12.0fns@." (callrcu_label on)
        (Report.si r.Serve.load.Open_loop.achieved)
        (Report.si r.Serve.write_throughput)
        ins.Repro_workload.Latency.p50 ins.Repro_workload.Latency.p99;
      Json.Obj
        [
          ("config", Json.String (callrcu_label on));
          ("structure", Json.String "citrus-urcu");
          ("shards", Json.Int 1);
          ("offered_per_s", Json.Float rate);
          ("duration_s", Json.Float duration);
          ("achieved_per_s", Json.Float r.Serve.load.Open_loop.achieved);
          ("drained_per_s", Json.Float r.Serve.write_throughput);
          ("write_p50_ns", Json.Float ins.Repro_workload.Latency.p50);
          ("write_p99_ns", Json.Float ins.Repro_workload.Latency.p99);
          ( "contains_p99_ns",
            Json.Float (summary r W.Contains).Repro_workload.Latency.p99 );
        ])
    [ false; true ]

(* Read-side registry cycles: [readers] domains doing empty
   read_lock/read_unlock sections flat out. Each cycle hits the
   registering domain's slot in the reader registry; with the slots
   padded to cache lines the per-cycle cost should hold roughly flat as
   readers are added (modulo scheduling on few cores), where unpadded
   neighbours would drag each other's lines. *)
let callrcu_readside ~duration ~readers_list =
  let module R = Repro_rcu.Epoch_rcu in
  Format.printf
    "@.call_rcu C: read-side registry cycles (empty read_lock/unlock@.\
     sections; the reader-slot registry entries are padded to cache@.\
     lines — per-cycle cost should stay flat as readers are added).@.";
  Format.printf "%8s %14s %12s@." "readers" "cycles/s" "ns/cycle";
  List.map
    (fun readers ->
      let r = R.create ~max_threads:(readers + 1) () in
      let stop = Atomic.make false in
      let bar = Repro_sync.Barrier.create (readers + 1) in
      let domains =
        List.init readers (fun _ ->
            Domain.spawn (fun () ->
                let th = R.register r in
                Repro_sync.Barrier.wait bar;
                let n = ref 0 in
                while not (Atomic.get stop) do
                  R.read_lock th;
                  R.read_unlock th;
                  incr n
                done;
                R.unregister th;
                !n))
      in
      Repro_sync.Barrier.wait bar;
      let t0 = Unix.gettimeofday () in
      Unix.sleepf duration;
      Atomic.set stop true;
      let total = List.fold_left (fun a d -> a + Domain.join d) 0 domains in
      let wall = Unix.gettimeofday () -. t0 in
      let per_s = float_of_int total /. wall in
      let ns_per_cycle =
        wall *. 1e9 *. float_of_int readers /. float_of_int (max total 1)
      in
      Format.printf "%8d %14s %12.1f@." readers (Report.si per_s) ns_per_cycle;
      Json.Obj
        [
          ("readers", Json.Int readers);
          ("duration_s", Json.Float duration);
          ("cycles_per_s", Json.Float per_s);
          ("ns_per_cycle", Json.Float ns_per_cycle);
        ])
    readers_list

let callrcu_bench scale quick json =
  let duration = if quick then 0.15 else Float.max scale.duration 1.0 in
  let reps = if quick then 1 else max scale.repeats 3 in
  (* At least one reader: this is fig9's single-writer-plus-readers
     regime, where grace periods have someone to wait for. *)
  let threads_list = if quick then [ 2; 4 ] else [ 2; 4; 8 ] in
  let rate = if quick then 30_000.0 else 150_000.0 in
  let fig9_points = callrcu_fig9 ~duration ~reps ~threads_list in
  let serve_points = callrcu_serve ~duration ~reps ~rate in
  let read_points =
    callrcu_readside
      ~duration:(Float.min duration 0.5)
      ~readers_list:(if quick then [ 1; 2 ] else [ 1; 2; 4 ])
  in
  Option.iter
    (fun file ->
      Json_report.write file
        (Json_report.report
           ~meta:
             [
               ( "meta",
                 Json.Obj
                   [
                     ("benchmark", Json.String "callrcu");
                     ("duration_s", Json.Float duration);
                     ("repeats", Json.Int reps);
                   ] );
             ]
           [
             ("callrcu: fig9 write-heavy updater throughput", fig9_points);
             ("callrcu: serve write p99, 1 shard citrus-urcu", serve_points);
             ("callrcu: read-side registry cycles", read_points);
           ]))
    json

(* --- command line --- *)

open Cmdliner

let scale_term =
  let paper =
    Arg.(value & flag & info [ "paper" ] ~doc:"Run at full paper scale (5s x 5 repeats, key ranges 2e5/2e6, up to 64 threads). Hours of runtime.")
  in
  let threads =
    Arg.(
      value
      & opt (some (list int)) None
      & info [ "threads" ] ~docv:"N,N,.." ~doc:"Thread counts to sweep.")
  in
  let duration =
    Arg.(
      value
      & opt (some float) None
      & info [ "duration" ] ~docv:"SECONDS" ~doc:"Timed seconds per run.")
  in
  let repeats =
    Arg.(
      value
      & opt (some int) None
      & info [ "repeats" ] ~docv:"N" ~doc:"Repetitions averaged per point.")
  in
  let combine paper threads duration repeats =
    let base = if paper then paper_scale else default_scale in
    {
      base with
      threads = Option.value threads ~default:base.threads;
      duration = Option.value duration ~default:base.duration;
      repeats = Option.value repeats ~default:base.repeats;
    }
  in
  Term.(const combine $ paper $ threads $ duration $ repeats)

let json_term =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:
          "Write a schema-versioned JSON report to $(docv): every sweep \
           point carries its sampled latency percentiles and \
           serialization metrics (grace periods, lock contention, \
           restarts) next to its throughput. Schema in OBSERVABILITY.md.")

let scale_meta scale =
  [
    ( "scale",
      Json.Obj
        [
          ("threads", Json.List (List.map (fun t -> Json.Int t) scale.threads));
          ("duration_s", Json.Float scale.duration);
          ("repeats", Json.Int scale.repeats);
          ("small_range", Json.Int scale.small_range);
          ("large_range", Json.Int scale.large_range);
        ] );
  ]

let finish scale json =
  Option.iter
    (fun file ->
      Json_report.write file
        (Json_report.report ~meta:(scale_meta scale) (List.rev !collected)))
    json

let wrap f scale json =
  f scale;
  finish scale json

let cmd name doc f =
  Cmd.v (Cmd.info name ~doc) Term.(const (wrap f) $ scale_term $ json_term)

(* One --quick for the commands CI smoke-tests. *)
let quick_term =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:
          "CI smoke scale: short single-repeat runs over a reduced sweep. \
           The numbers are meaningless for performance; the run validates \
           the harness and the JSON schema.")

let run_all scale =
  fig8 scale;
  fig9 scale;
  fig10 scale;
  ablation scale;
  contention scale;
  skew scale

let ablation_cmd =
  Cmd.v
    (Cmd.info "ablation" ~doc:"Citrus restart/grace-period ablations.")
    Term.(const ablation $ scale_term)

let gp_cmd =
  Cmd.v
    (Cmd.info "gp"
       ~doc:
         "Grace-period coalescing microbenchmark: concurrent synchronize \
          throughput with the coalescing machinery on vs off, per RCU \
          flavour.")
    Term.(const gp_bench $ scale_term $ quick_term $ json_term)

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Sharded-service benchmark: aggregate write throughput under \
          saturating open-loop load as the shard count grows (see \
          SERVING.md).")
    Term.(const serve_bench $ scale_term $ quick_term $ json_term)

let callrcu_cmd =
  Cmd.v
    (Cmd.info "callrcu"
       ~doc:
         "Inline grace-period waits vs the call_rcu background reclaimer: \
          write-heavy Citrus updater throughput (fig9-style), serve-bench \
          write p99 on the grace-period-bound configuration, and the \
          read-side registry cycle cost (must not change).")
    Term.(const callrcu_bench $ scale_term $ quick_term $ json_term)

let main =
  Cmd.group
    ~default:Term.(const (wrap run_all) $ scale_term $ json_term)
    (Cmd.info "bench" ~doc:"Reproduce the Citrus paper's evaluation.")
    [
      cmd "fig8" "RCU implementation impact on Citrus (Figure 8)." fig8;
      cmd "fig9" "Single-writer workload (Figure 9)." fig9;
      cmd "fig10" "Throughput grid (Figure 10)." fig10;
      ablation_cmd;
      cmd "contention" "Throughput vs update fraction sweep." contention;
      cmd "skew" "Throughput under Zipfian key popularity." skew;
      serve_cmd;
      callrcu_cmd;
      gp_cmd;
      cmd "all"
        "Run fig8, fig9, fig10, ablation, contention and skew (default)."
        run_all;
    ]

let () =
  (* [Runner.run] raises [Registry.Full] on the calling thread after all
     worker domains have been joined, so this catch leaves no stragglers:
     report the operator error in one line and exit 2 like other usage
     errors. *)
  try exit (Cmd.eval main)
  with Repro_sync.Registry.Full ->
    prerr_endline
      "error: RCU thread registry full — the requested thread count exceeds \
       the structure's registered-thread capacity; reduce --threads";
    exit 2
