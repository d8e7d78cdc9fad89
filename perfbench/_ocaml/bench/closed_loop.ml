(* The closed-loop workloads: [Repro_workload.Runner] drives the program's
   Citrus dictionary through the timing wrapper, on a tree the benchmark
   built, prefilled and settled itself. *)

module D = Repro_dict.Dict.Citrus_epoch
module Metrics = Repro_sync.Metrics
module Workload = Repro_workload.Workload

type spec = {
  key_range : int;
  prefill : int;  (** distinct keys inserted before the clock starts *)
  mix : Workload.mix;
  threads : int;
  setup_reps : int;
      (** set-ups per segment, the last one measured: enough that a small
          tree's set-up time is a median of many *)
}

type segment = {
  setup_s : float list;
  traced : bool;
  wall : float;  (** the runner's measured seconds *)
  ops : int;
  windows : (Hist.t * Hist.t) list;
      (** (contains, writes) latency per full window, merged over the
          workers *)
  problems : string list;  (** correctness-oracle failures *)
  metrics : (string * float) list;  (** program counters over the window *)
  recorders : Probe.recorder list;
  minor_collections : int;
  major_collections : int;
  pauses : (Hist.t * int) option;  (** GC pauses and lost events, traced *)
}

(* The measured window closes when the runner, having joined its workers,
   calls [shutdown]; the program counters and GC counters are read there,
   before the runner's own invariant check walks the tree. *)
let window_end = ref ([], 0, 0)
let check_failure = ref None

module W = struct
  include Probe.Timed (D)

  let shutdown t =
    let g = Gc.quick_stat () in
    window_end := (Metrics.snapshot (), g.minor_collections, g.major_collections);
    D.shutdown t

  let check t =
    try D.check t
    with e -> check_failure := Some (Printexc.to_string e)
end

(* Build and prefill a tree, then settle the heap with a full major
   collection so the measured window does not pay for marking it. *)
let build spec rng =
  let t0 = Unix.gettimeofday () in
  let t = D.create ~max_threads:(spec.threads + 2) () in
  let h = D.register t in
  Array.iter
    (fun k -> ignore (D.insert h k k))
    (Probe.sample_keys rng ~range:spec.key_range ~n:spec.prefill);
  D.unregister h;
  Gc.full_major ();
  (t, Unix.gettimeofday () -. t0)

(* [spec.setup_reps] set-ups, each timed; all but the last tree are
   dropped. Returns the last tree, its size and every set-up time. *)
let setup spec ~seed =
  Probe.new_generation ~traced:false;
  let rng = Random.State.make [| seed; 0x5eed |] in
  let rec go n acc =
    let t, s = build spec rng in
    if n <= 1 then (t, List.rev (s :: acc))
    else begin
      D.shutdown t;
      go (n - 1) (s :: acc)
    end
  in
  let t, times = go spec.setup_reps [] in
  Probe.note_setup_heap ();
  (t, D.size t, times)

(* One measured segment on tree [t] holding [size] keys. The oracle: the
   runner's invariant check passes, the final size equals [size] plus
   successful inserts minus successful deletes, and the runner and the
   wrapper counted the same operations. *)
let measure spec t ~size ~seed ~seconds ~traced ~setup_s =
  let cfg =
    Workload.config ~key_range:spec.key_range ~role:(Workload.Uniform spec.mix)
      ~threads:spec.threads ~duration:seconds ~prefill_fraction:0.0
      ~seed:(Int64.of_int seed) ()
  in
  Probe.new_generation ~traced;
  check_failure := None;
  let g0 = Gc.quick_stat () in
  let watch = if traced then Some (Gc_watch.start ()) else None in
  Metrics.reset ();
  W.stage t;
  let res = Repro_workload.Runner.run (module W) cfg in
  let pauses = Option.map Gc_watch.stop watch in
  let metrics, minor1, major1 = !window_end in
  let recorders = List.filter (fun r -> r.Probe.calls > 0) (Probe.all ()) in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 recorders in
  let ops = sum (fun r -> r.Probe.calls) in
  let expected = size + sum (fun r -> r.ins_ok) - sum (fun r -> r.del_ok) in
  let problems =
    List.filter_map Fun.id
      [
        Option.map (fun e -> "invariant check failed: " ^ e) !check_failure;
        (if res.final_size = expected then None
         else
           Some
             (Printf.sprintf
                "final size %d <> initial %d + inserts - deletes = %d"
                res.final_size size expected));
        (if ops = res.total_ops then None
         else
           Some
             (Printf.sprintf "runner counted %d ops, wrapper %d" res.total_ops
                ops));
      ]
  in
  let seg =
    {
      setup_s;
      traced;
      wall = res.wall;
      ops;
      windows =
        (let sets op = List.map (fun r -> r.Probe.wins.(op)) recorders in
         let writes = sets Probe.op_insert @ sets Probe.op_delete in
         (* Only windows in which every worker was issuing operations. *)
         let lo = List.fold_left (fun m r -> max m r.Probe.first) min_int recorders
         and hi = List.fold_left (fun m r -> min m r.Probe.last) max_int recorders in
         Hist.Windows.full_indices ~lo ~hi (sets Probe.op_contains @ writes)
         |> List.map (fun i ->
                (Hist.Windows.at (sets Probe.op_contains) i, Hist.Windows.at writes i)));
      problems;
      metrics;
      recorders;
      minor_collections = minor1 - g0.minor_collections;
      major_collections = major1 - g0.major_collections;
      pauses;
    }
  in
  (seg, res.final_size)

(* One set-up and its measured segments: untraced, then, for a traced
   run, a traced segment on the same tree after the heap is settled
   again, so the tracing overhead is measured on the same data. *)
let run spec ~seed ~seconds ~traced =
  let t, size, setup_s = setup spec ~seed in
  let u, size = measure spec t ~size ~seed ~seconds ~traced:false ~setup_s in
  if not traced then [ u ]
  else begin
    Gc.full_major ();
    let tr, _ = measure spec t ~size ~seed:(seed + 500) ~seconds ~traced:true ~setup_s:[] in
    [ u; tr ]
  end
