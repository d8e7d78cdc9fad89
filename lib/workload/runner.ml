module Rng = Repro_sync.Rng
module Barrier = Repro_sync.Barrier
module Metrics = Repro_sync.Metrics

type result = {
  name : string;
  threads : int;
  total_ops : int;
  contains_ops : int;
  insert_ops : int;
  delete_ops : int;
  wall : float;
  throughput : float;
  final_size : int;
  latency : (Workload.op * Latency.histogram) list;
  metrics : (string * float) list;
}

type thread_counts = {
  mutable n_contains : int;
  mutable n_insert : int;
  mutable n_delete : int;
}

(* Every run times 1 op in 2^latency_sample_shift: enough samples for
   p99.9 on any run longer than ~0.1s, cheap enough (two clock reads per
   sampled op) to stay inside the run-to-run spread of throughput. The
   64-op batch is a multiple of the sampling period, so each worker times
   its ops 0, 16, 32, ... *)
let latency_sample_shift = 4
let latency_sample_mask = (1 lsl latency_sample_shift) - 1

let run (module D : Repro_dict.Dict.DICT)
    (cfg : Workload.config) =
  let t = D.create ~max_threads:(cfg.threads + 2) () in
  let master = Rng.create cfg.seed in
  (* Pre-fill to [prefill_fraction] of the key range (paper: half). *)
  let setup = D.register t in
  let target =
    int_of_float (float_of_int cfg.key_range *. cfg.prefill_fraction)
  in
  let filled = ref 0 in
  while !filled < target do
    let k = Rng.int master cfg.key_range in
    if D.insert setup k k then incr filled
  done;
  D.unregister setup;
  (* A worker that finds the slot registry full cannot just raise: the
     start barrier would never fill and every other domain would hang. It
     records the failure, still joins the barrier, and exits; the main
     thread re-raises [Registry.Full] after the join so CLI frontends can
     report it cleanly. *)
  let registry_full = Atomic.make false in
  (* Each worker hammers the dictionary until [stop]; operations run in
     batches of 64 so the stop flag is polled cheaply. *)
  let worker mix seed start stop counts (hc, hi, hd) =
    match D.register t with
    | exception Repro_sync.Registry.Full ->
        Atomic.set registry_full true;
        Barrier.wait start
    | handle ->
        let rng = Rng.create seed in
        let next_key = Workload.key_generator cfg rng in
        let apply op k =
          match op with
          | Workload.Contains ->
              ignore (D.contains handle k);
              counts.n_contains <- counts.n_contains + 1
          | Workload.Insert ->
              ignore (D.insert handle k k);
              counts.n_insert <- counts.n_insert + 1
          | Workload.Delete ->
              ignore (D.delete handle k);
              counts.n_delete <- counts.n_delete + 1
        in
        Barrier.wait start;
        while not (Atomic.get stop) do
          for i = 0 to 63 do
            let k = next_key () in
            let op = Workload.pick rng mix in
            if i land latency_sample_mask = 0 then begin
              let t0 = Monotonic_clock.now () in
              apply op k;
              let dt = Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0) in
              Latency.record
                (match op with
                | Workload.Contains -> hc
                | Workload.Insert -> hi
                | Workload.Delete -> hd)
                dt
            end
            else apply op k
          done
        done;
        D.unregister handle
  in
  let start = Barrier.create (cfg.threads + 1) in
  let stop = Atomic.make false in
  let counts =
    Array.init cfg.threads (fun _ ->
        { n_contains = 0; n_insert = 0; n_delete = 0 })
  in
  let histograms =
    Array.init cfg.threads (fun _ ->
        (Latency.histogram (), Latency.histogram (), Latency.histogram ()))
  in
  let mix_for i =
    match cfg.role with
    | Workload.Uniform m -> m
    | Workload.Single_writer m -> if i = 0 then m else Workload.read_only
  in
  (* The global metrics reflect this run only: zero them after the prefill,
     just before the workers start. Runs are sequential per process, so no
     other workload writes into the registry meanwhile. *)
  Metrics.reset ();
  let domains =
    List.init cfg.threads (fun i ->
        let seed = Rng.next64 master in
        Domain.spawn (fun () ->
            worker (mix_for i) seed start stop counts.(i) histograms.(i)))
  in
  Barrier.wait start;
  if Atomic.get registry_full then begin
    Atomic.set stop true;
    List.iter Domain.join domains;
    raise Repro_sync.Registry.Full
  end;
  let t0 = Unix.gettimeofday () in
  Unix.sleepf cfg.duration;
  Atomic.set stop true;
  List.iter Domain.join domains;
  let wall = Unix.gettimeofday () -. t0 in
  (* Snapshot before the invariant check so checker traversals do not
     pollute the run's metrics. *)
  let metrics = Metrics.snapshot () in
  (* Quiesce background reclamation (call_rcu tables) before checking:
     mid-flight asynchronous deletes legitimately leave locked copies. *)
  D.shutdown t;
  D.check t;
  let sum f = Array.fold_left (fun acc c -> acc + f c) 0 counts in
  let contains_ops = sum (fun c -> c.n_contains) in
  let insert_ops = sum (fun c -> c.n_insert) in
  let delete_ops = sum (fun c -> c.n_delete) in
  let total_ops = contains_ops + insert_ops + delete_ops in
  let latency =
    let all = Array.to_list histograms in
    let pick3 f = Latency.merge (List.map f all) in
    [
      (Workload.Contains, pick3 (fun (c, _, _) -> c));
      (Workload.Insert, pick3 (fun (_, i, _) -> i));
      (Workload.Delete, pick3 (fun (_, _, d) -> d));
    ]
    |> List.filter (fun (_, h) -> Latency.count h > 0)
  in
  {
    name = D.name;
    threads = cfg.threads;
    total_ops;
    contains_ops;
    insert_ops;
    delete_ops;
    wall;
    throughput = float_of_int total_ops /. wall;
    final_size = D.size t;
    latency;
    metrics;
  }

let run_avg ?(repeats = 1) (module D : Repro_dict.Dict.DICT)
    (cfg : Workload.config) =
  if repeats <= 0 then invalid_arg "Runner.run_avg: repeats must be positive";
  let runs =
    List.init repeats (fun i ->
        run (module D) { cfg with seed = Int64.add cfg.seed (Int64.of_int i) })
  in
  let favg f =
    List.fold_left (fun acc r -> acc +. f r) 0.0 runs
    /. float_of_int repeats
  in
  let iavg f = int_of_float (favg (fun r -> float_of_int (f r))) in
  (* Latency histograms merge exactly; metrics average per key so counter
     semantics ("per run of [duration] seconds") survive the repeat. *)
  let latency =
    List.filter_map
      (fun op ->
        let hs =
          List.filter_map (fun r -> List.assoc_opt op r.latency) runs
        in
        if hs = [] then None else Some (op, Latency.merge hs))
      [ Workload.Contains; Workload.Insert; Workload.Delete ]
  in
  let metrics =
    match runs with
    | [] -> []
    | first :: _ ->
        List.map
          (fun (key, _) ->
            let mean =
              favg (fun r ->
                  match List.assoc_opt key r.metrics with
                  | Some v -> v
                  | None -> 0.0)
            in
            (key, mean))
          first.metrics
  in
  {
    name = D.name;
    threads = cfg.threads;
    total_ops = iavg (fun r -> r.total_ops);
    contains_ops = iavg (fun r -> r.contains_ops);
    insert_ops = iavg (fun r -> r.insert_ops);
    delete_ops = iavg (fun r -> r.delete_ops);
    wall = favg (fun r -> r.wall);
    throughput = favg (fun r -> r.throughput);
    final_size = iavg (fun r -> r.final_size);
    latency;
    metrics;
  }
