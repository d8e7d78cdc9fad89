(* The open-loop [serve] workload: one [Repro_workload.Open_loop] client
   domain issues Poisson arrivals against a one-shard
   [Repro_server.Shard_router] over the timing wrapper, reads direct and
   writes waited ([insert_wait]/[delete_wait]). The client is the
   benchmark's: it times each router call, checks every answer against its
   own ledger, and builds each request's spans. *)

module D = Repro_dict.Dict.Citrus_epoch
module T = Probe.Timed (D)
module R = Repro_server.Shard_router.Make (T)
module Metrics = Repro_sync.Metrics
module Workload = Repro_workload.Workload
module Open_loop = Repro_workload.Open_loop

type spec = { key_range : int; prefill : int; rate : float; mix : Workload.mix }

(* Open_loop passes each operation its absolute deadline, the scheduled
   arrival plus the spec's budget, and nothing else about the schedule.
   The client recovers the scheduled arrival from it and never forwards
   the deadline to the router, so the service runs with its default of no
   deadline; with no retries the budget has no other effect. *)
let budget_ns = 3_600_000_000_000

(* One waited write, for the traced accounting of [write_p50_ns]. *)
type write = { lat : int; lag : int; call : int; apply : int }

type segment = {
  setup_s : float list;
  traced : bool;
  wall : float;
  issued : int;
  completed : int;
  not_completed : int;  (** dropped + exhausted + expired *)
  oracle_failures : int;
  problems : string list;
  contains : Hist.t;  (** scheduled arrival to return, reads *)
  writes : Hist.t;  (** scheduled arrival to return, waited writes *)
  windows : (Hist.t * Hist.t) list;  (** (contains, writes) per full window *)
  gen_lag : Hist.t;  (** scheduled arrival to the call into the router *)
  read_call : Hist.t;
  write_call : Hist.t;
  apply : Hist.t;
  call_self : Hist.t;  (** write call minus the apply inside it *)
  write_log : write list;
  rejects : int;
  breaker_trips : int;
  queue_max_depth : int;
  metrics : (string * float) list;
  recorders : Probe.recorder list;
  minor_collections : int;
  major_collections : int;
  pauses : (Hist.t * int) option;
  spans : Probe.Spans.buf;
  client_domain : int;  (** the domain that recorded [spans] *)
}

let run_segment spec ~seed ~seconds ~traced =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let t0 = Unix.gettimeofday () in
  Probe.serving := false;
  Probe.new_generation ~traced:false;
  let r = R.create ~shards:1 () in
  let model = Bytes.make spec.key_range '\000' in
  let h = R.register r in
  Array.iter
    (fun k -> if R.load h k k then Bytes.set model k '\001')
    (Probe.sample_keys rng ~range:spec.key_range ~n:spec.prefill);
  R.unregister h;
  Gc.full_major ();
  R.start r;
  let setup_s = Unix.gettimeofday () -. t0 in
  Probe.note_setup_heap ();
  Probe.new_generation ~traced;
  Probe.serving := true;
  let window () =
    Hist.Windows.create ~origin:!Probe.window_origin ~len:!Probe.window_ns
  in
  let contains = window () and writes = window () in
  let gen_lag = Hist.create ()
  and read_call = Hist.create ()
  and write_call = Hist.create ()
  and apply = Hist.create ()
  and call_self = Hist.create () in
  let write_log = ref [] in
  let failures = ref 0 and rejects = ref 0 and applied = ref 0 in
  let spans = Probe.Spans.create (if traced then 1 lsl 17 else 0) in
  let next_req = ref 0 in
  let fail () = incr failures in
  let span ~req ~keep ~name ~parent ~start ~stop =
    if keep then begin
      let id = Probe.Spans.fresh_id () in
      Probe.Spans.push spans ~id ~name ~parent ~req ~start ~stop;
      id
    end
    else 0
  in
  let run_op h op k deadline =
    let sched = deadline - budget_ns in
    let call = Probe.now () in
    incr next_req;
    let req = !next_req in
    (* Spans of one request in 64 are kept in the log; the histograms see
       every request. *)
    let keep = traced && req land 63 = 0 in
    Hist.record gen_lag (call - sched);
    let root = if keep then Probe.Spans.fresh_id () else 0 in
    ignore
      (span ~req ~keep ~name:Probe.Spans.gen_lag ~parent:root ~start:sched
         ~stop:call);
    let finish_root stop =
      if keep then
        Probe.Spans.push spans ~id:root ~name:Probe.Spans.request ~parent:0 ~req
          ~start:sched ~stop
    in
    match op with
    | Workload.Contains ->
        let b = R.mem h k in
        let ret = Probe.now () in
        let rc = Probe.current () in
        Hist.record read_call (ret - call);
        Hist.Windows.record contains ~start:sched ~stop:ret (ret - sched);
        finish_root ret;
        let c =
          span ~req ~keep ~name:Probe.Spans.read_call ~parent:root ~start:call
            ~stop:ret
        in
        ignore
          (span ~req ~keep
             ~name:(Probe.Spans.citrus_op Probe.op_contains)
             ~parent:c ~start:rc.last_start ~stop:rc.last);
        if b <> (Bytes.get model k = '\001') then fail ();
        incr applied;
        Open_loop.Applied b
    | Workload.Insert | Workload.Delete -> (
        Atomic.set Probe.inflight req;
        let result =
          if op = Workload.Insert then R.insert_wait h k req
          else R.delete_wait h k
        in
        let ret = Probe.now () in
        match result with
        | Ok wr ->
            let b =
              match wr with
              | Repro_server.Shard_router.Applied b -> b
              | Replayed b ->
                  (* No updater crashes in this workload: a replay is a
                     failure of the run. *)
                  fail ();
                  b
            in
            let present = Bytes.get model k = '\001' in
            let expect = if op = Workload.Insert then not present else present in
            if b <> expect then fail ();
            if b then
              Bytes.set model k (if op = Workload.Insert then '\001' else '\000');
            let a0 = Atomic.get Probe.apply_start
            and a1 = Atomic.get Probe.apply_stop in
            if Atomic.get Probe.apply_req <> req then fail ();
            Hist.record write_call (ret - call);
            Hist.Windows.record writes ~start:sched ~stop:ret (ret - sched);
            Hist.record apply (a1 - a0);
            Hist.record call_self (ret - call - (a1 - a0));
            if traced then
              write_log :=
                { lat = ret - sched; lag = call - sched; call = ret - call;
                  apply = a1 - a0 }
                :: !write_log;
            finish_root ret;
            let c =
              span ~req ~keep ~name:Probe.Spans.write_call ~parent:root
                ~start:call ~stop:ret
            in
            ignore
              (span ~req ~keep ~name:Probe.Spans.apply ~parent:c ~start:a0
                 ~stop:a1);
            incr applied;
            Open_loop.Applied b
        | Error (Full | Overload | Breaker_open) ->
            incr rejects;
            Open_loop.Busy
        | Error Expired -> Open_loop.Expired
        | Error (Failed | Shutdown) -> Open_loop.Dropped)
  in
  let client_domain = ref 0 in
  let make_client _ =
    client_domain := (Domain.self () :> int);
    let h = R.register r in
    { Open_loop.run_op = run_op h; finish = (fun () -> R.unregister h) }
  in
  let ol =
    Open_loop.spec ~clients:1 ~rate:spec.rate ~duration:seconds ~mix:spec.mix
      ~key_range:spec.key_range ~seed:(Int64.of_int seed) ~max_retries:0
      ~deadline_ns:budget_ns ()
  in
  let g0 = Gc.quick_stat () in
  let watch = if traced then Some (Gc_watch.start ()) else None in
  Metrics.reset ();
  let res = Open_loop.run ol make_client in
  let metrics = Metrics.snapshot () in
  let g1 = Gc.quick_stat () in
  let pauses = Option.map Gc_watch.stop watch in
  let queue_max_depth =
    Array.fold_left (fun m s -> max m s.Repro_server.Mod_queue.max_depth) 0
      (R.queue_stats r)
  in
  let breaker_trips = R.breaker_trips r in
  Probe.serving := false;
  let shutdown = R.shutdown r in
  let check =
    match R.check r with () -> None | exception e -> Some (Printexc.to_string e)
  in
  let final = List.map fst (R.to_list r) |> List.sort compare in
  let expected =
    List.filter (fun k -> Bytes.get model k = '\001')
      (List.init spec.key_range Fun.id)
  in
  let not_completed = res.dropped + res.exhausted + res.expired in
  let problems =
    List.filter_map Fun.id
      [
        (match shutdown with
        | Repro_server.Shard_router.Drained -> None
        | Forced _ -> Some "shutdown was forced, not drained");
        Option.map (fun e -> "invariant check failed: " ^ e) check;
        (if res.issued = res.completed + not_completed then None
         else
           Some
             (Printf.sprintf
                "issued %d <> completed %d + dropped %d + exhausted %d + \
                 expired %d"
                res.issued res.completed res.dropped res.exhausted res.expired));
        (if res.completed = !applied then None
         else
           Some
             (Printf.sprintf "open loop completed %d, client applied %d"
                res.completed !applied));
        (if final = expected then None
         else
           Some
             (Printf.sprintf
                "final key set (%d keys) differs from the ledger replay (%d \
                 keys)"
                (List.length final) (List.length expected)));
        (if !failures = 0 then None
         else Some (Printf.sprintf "%d answers disagreed with the ledger" !failures));
      ]
  in
  {
    setup_s = [ setup_s ];
    traced;
    wall = res.wall;
    issued = res.issued;
    completed = res.completed;
    not_completed;
    oracle_failures = !failures;
    problems;
    contains = Hist.Windows.all contains;
    writes = Hist.Windows.all writes;
    windows =
      List.map
        (fun i -> (Hist.Windows.at [ contains ] i, Hist.Windows.at [ writes ] i))
        (let lo, hi = Hist.Windows.extent [ contains; writes ] in
         Hist.Windows.full_indices ~lo ~hi [ contains; writes ]);
    gen_lag;
    read_call;
    write_call;
    apply;
    call_self;
    write_log = !write_log;
    rejects = !rejects;
    breaker_trips;
    queue_max_depth;
    metrics;
    recorders = List.filter (fun r -> r.Probe.calls > 0) (Probe.all ());
    minor_collections = g1.minor_collections - g0.minor_collections;
    major_collections = g1.major_collections - g0.major_collections;
    pauses;
    spans;
    client_domain = !client_domain;
  }

(* One segment, or for a traced run an untraced and a traced one, each on
   a freshly built router: shutdown is terminal. *)
let run spec ~seed ~seconds ~traced =
  List.map
    (fun (seed, traced) ->
      let s = run_segment spec ~seed ~seconds ~traced in
      Gc.compact ();
      s)
    (if traced then [ (seed, false); (seed + 500, true) ] else [ (seed, false) ])
