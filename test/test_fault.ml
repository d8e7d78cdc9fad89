(* Fault-injection and stall-detection tests (ROBUSTNESS.md).

   Fault points must be deterministic functions of (seed, point, domain,
   arrival), invisible when disarmed, and strict about unknown names. The
   stall watchdog must name the blocking reader slot, emit one report per
   threshold window in warn mode, raise [Rcu.Stalled] in fail mode, and
   stay silent on healthy runs — for all three RCU flavours. Draining an
   inline reclaimer bag at teardown must run every callback, including
   callbacks enqueued by callbacks. *)

module Fault = Repro_fault.Fault
module San = Repro_sanitizer.Sanitizer
module Stall = Repro_rcu.Rcu.Stall
module Torture = Repro_rcu.Torture
module Mutation = Repro_mutants.Mutation

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* Every test owns the process-global fault/watchdog state for its
   duration and restores a clean slate on the way out. *)
let isolated f =
  Fun.protect
    ~finally:(fun () ->
      Fault.disable_all ();
      Stall.disarm ();
      Stall.reset_handler ())
    f

(* Arm the reclamation sanitizer around [f], restoring it: a Citrus tree
   created inside retires what it unlinks. *)
let with_san f =
  let was = San.enabled () in
  San.arm ();
  Fun.protect ~finally:(fun () -> if not was then San.disarm ()) f

(* ------------------------------------------------------------------ *)
(* Fault core *)

let test_determinism () =
  isolated (fun () ->
      let p = Fault.register "test.determinism" in
      let draw () =
        Fault.configure ~seed:123L [ ("test.determinism", 0.5) ];
        List.init 200 (fun _ -> Fault.fires p)
      in
      let a = draw () and b = draw () in
      checkb "same seed, same fire sequence" true (a = b);
      checkb "rate 0.5 fires sometimes" true (List.mem true a);
      checkb "rate 0.5 skips sometimes" true (List.mem false a);
      Fault.configure ~seed:321L [ ("test.determinism", 0.5) ];
      let c = List.init 200 (fun _ -> Fault.fires p) in
      checkb "different seed, different sequence" true (a <> c))

let test_rate_extremes () =
  isolated (fun () ->
      let p = Fault.register "test.extremes" in
      Fault.configure ~seed:7L [ ("test.extremes", 1.0) ];
      checkb "rate 1 always fires" true
        (List.init 100 (fun _ -> Fault.fires p) |> List.for_all Fun.id);
      Fault.set "test.extremes" ~rate:0.0;
      checkb "rate 0 disarms the point" false (Fault.enabled ());
      Alcotest.check_raises "rate out of range"
        (Invalid_argument "Fault.set: rate must be within [0, 1]") (fun () ->
          Fault.set "test.extremes" ~rate:1.5))

let test_counters () =
  isolated (fun () ->
      let p = Fault.register "test.counters" in
      Fault.configure ~seed:11L [ ("test.counters", 0.5) ];
      Fault.reset_counters ();
      for _ = 1 to 200 do
        ignore (Fault.fires p)
      done;
      match
        List.find_opt
          (fun (n, _, _) -> n = "test.counters")
          (Fault.stats ())
      with
      | None -> Alcotest.fail "point missing from stats"
      | Some (_, hits, fired) ->
          checki "hits counts arrivals" 200 hits;
          checkb "fired is a nontrivial fraction" true
            (fired > 0 && fired < 200))

(* The full fault-point catalogue, as ROBUSTNESS.md documents it. *)
let catalogue =
  [
    "urcu.sync.pre_flip";
    "urcu.read.enter";
    "qsbr.wait";
    "epoch.advance";
    "defer.flush";
    "lock.spin.acquire";
    "lock.ticket.acquire";
    "citrus.delete.window";
    "citrus.read.step";
    "torture.reader.hold";
    "server.updater.crash";
    "server.drain.stall";
    "rcu.reclaim.crash";
    "server.enqueue";
    "server.drain";
    "bug.urcu.single_flip";
    "bug.qsbr.quiescent_in_section";
    "bug.reclaimer.early_free";
    "bug.citrus.abba_delete";
    "bug.citrus.sync_in_read";
    "bug.citrus.unbalanced_unlock";
    "bug.router.forget_backlog";
    "bug.router.skip_deadline";
    "bug.breaker.never_open";
  ]

let test_unknown_point () =
  isolated (fun () ->
      Alcotest.check_raises "strict set"
        (Fault.Unknown_point "no.such.point") (fun () ->
          Fault.set "no.such.point" ~rate:0.5);
      checkb "find is total" true (Fault.find "no.such.point" = None);
      (* The subsystem catalogue is pre-registered even before any fault
         call site has executed. *)
      List.iter (fun n -> checkb n true (Fault.find n <> None)) catalogue;
      (* ... and it is complete: every point a linked subsystem registers
         is in it (tests register ad-hoc [test.*] points of their own). *)
      List.iter
        (fun p ->
          let n = Fault.name p in
          if not (String.starts_with ~prefix:"test." n) then
            checkb (n ^ " catalogued") true (List.mem n catalogue))
        (Fault.points ()))

let test_parse_spec () =
  let ok spec expected =
    match Fault.parse_spec spec with
    | Ok got -> checkb spec true (got = expected)
    | Error e -> Alcotest.fail (spec ^ ": " ^ e)
  in
  ok "urcu.sync.pre_flip=0.3" ("urcu.sync.pre_flip", 0.3, None);
  ok "defer.flush=0.5:yield=512" ("defer.flush", 0.5, Some (Fault.Yield 512));
  ok "p=1:delay_ns=1000" ("p", 1.0, Some (Fault.Delay_ns 1000));
  List.iter
    (fun bad ->
      match Fault.parse_spec bad with
      | Ok _ -> Alcotest.fail (bad ^ ": accepted")
      | Error _ -> ())
    [ "nonsense"; "p=abc"; "p=0.5:frob=3"; "=0.5"; "p=" ]

let test_disabled_is_invisible () =
  isolated (fun () ->
      Fault.disable_all ();
      checkb "disabled" false (Fault.enabled ());
      let p = Fault.register "test.invisible" in
      (* inject on a disarmed point is a no-op, not a crash *)
      Fault.inject p;
      checkb "disarmed point never fires" false (Fault.fires p))

(* ------------------------------------------------------------------ *)
(* Reclaimer.drain on an inline-drained reclaimer *)

let test_drain () =
  let module R = Repro_rcu.Epoch_rcu in
  let module Rec = Repro_rcu.Reclaimer.Make (R) in
  let r = R.create () in
  let rc = Rec.create ~batch:32 ~background:false r in
  let p = Rec.new_producer rc in
  let ran = ref 0 in
  (* A callback that enqueues another callback: one pass is not enough,
     drain must iterate to a fixed point. *)
  Rec.call_rcu rc p (fun () ->
      incr ran;
      Rec.call_rcu rc p (fun () -> incr ran));
  for _ = 1 to 3 do
    Rec.call_rcu rc p (fun () -> incr ran)
  done;
  checkb "bag below batch" true (Rec.pending rc < 32);
  Rec.drain rc p;
  checki "nothing pending after drain" 0 (Rec.pending rc);
  checki "every callback ran, including chained" 5 !ran;
  checki "chained callback took a second pass" 2 (Rec.batches rc)

(* ------------------------------------------------------------------ *)
(* Stall watchdog, per flavour *)

module Stall_tests (R : Repro_rcu.Rcu.S) = struct
  (* A reader that parks inside one read-side critical section; [flag]
     flips once it is inside, so the updater can synchronize knowing the
     grace period is actually blocked. *)
  let parked_reader r ~park_s flag =
    Domain.spawn (fun () ->
        let th = R.register r in
        R.read_lock th;
        Atomic.set flag true;
        Unix.sleepf park_s;
        R.read_unlock th;
        R.unregister th)

  let test_warn () =
    isolated (fun () ->
        let r = R.create () in
        let flag = Atomic.make false in
        let d = parked_reader r ~park_s:0.1 flag in
        while not (Atomic.get flag) do
          Domain.cpu_relax ()
        done;
        let reports = ref [] in
        Stall.set_handler (fun rep -> reports := rep :: !reports);
        Stall.arm ~mode:Stall.Warn ~threshold_ns:30_000_000 ();
        R.synchronize r;
        Domain.join d;
        let n = List.length !reports in
        (* 100 ms park / 30 ms threshold: one report per window means a
           handful, not zero and not dozens. *)
        checkb "at least one report" true (n >= 1);
        checkb "one report per window, not a flood" true (n <= 8);
        List.iter
          (fun (rep : Stall.report) ->
            checks "flavour" R.name rep.flavour;
            checki "blocking slot is the parked reader" 0 rep.slot;
            checkb "elapsed at least the threshold" true
              (rep.elapsed_ns >= 30_000_000))
          !reports)

  let test_fail () =
    isolated (fun () ->
        let r = R.create () in
        let flag = Atomic.make false in
        let d = parked_reader r ~park_s:0.1 flag in
        while not (Atomic.get flag) do
          Domain.cpu_relax ()
        done;
        Stall.set_handler ignore;
        Stall.arm ~mode:Stall.Fail ~threshold_ns:20_000_000 ();
        (match R.synchronize r with
        | () -> Alcotest.fail "synchronize returned despite fail mode"
        | exception Repro_rcu.Rcu.Stalled rep ->
            checks "flavour" R.name rep.flavour;
            checki "blocking slot is the parked reader" 0 rep.slot);
        Domain.join d;
        (* The flavour must recover once the reader leaves: the next grace
           period (watchdog off) completes normally. *)
        Stall.disarm ();
        R.synchronize r;
        checkb "recovered after the stall" true (R.grace_periods r >= 1))

  let test_quiet () =
    isolated (fun () ->
        let r = R.create () in
        let reports = ref 0 in
        Stall.set_handler (fun _ -> incr reports);
        Stall.arm ~mode:Stall.Warn ~threshold_ns:50_000_000 ();
        let stop = Atomic.make false in
        let d =
          Domain.spawn (fun () ->
              let th = R.register r in
              while not (Atomic.get stop) do
                R.read_lock th;
                R.read_unlock th
              done;
              R.unregister th)
        in
        for _ = 1 to 50 do
          R.synchronize r
        done;
        Atomic.set stop true;
        Domain.join d;
        checki "healthy run, zero reports" 0 !reports)

  let suite flavour =
    ( "stall/" ^ flavour,
      [
        Alcotest.test_case "warn: parked reader reported" `Quick test_warn;
        Alcotest.test_case "fail: synchronize raises Stalled" `Quick test_fail;
        Alcotest.test_case "armed but healthy: silent" `Quick test_quiet;
      ] )
end

module Stall_epoch = Stall_tests (Repro_rcu.Epoch_rcu)
module Stall_urcu = Stall_tests (Repro_rcu.Urcu)
module Stall_qsbr = Stall_tests (Repro_rcu.Qsbr)

(* ------------------------------------------------------------------ *)
(* Torture-harness integration: the same scenarios end-to-end *)

let test_torture_warn () =
  let out =
    Torture.run_flavour ~seed:3 "urcu"
      {
        Torture.default with
        updates_per_writer = 100;
        reader_park_ms = 80;
        stall_ms = 25;
      }
  in
  checki "no torture errors" 0 out.Torture.errors;
  checkb "stall reported" true (out.stalls >= 1);
  checki "warn mode aborts nobody" 0 out.stalled_writers

let test_torture_fail () =
  let out =
    Torture.run_flavour ~seed:3 "epoch-rcu"
      {
        Torture.default with
        updates_per_writer = 500;
        reader_park_ms = 100;
        stall_ms = 20;
        stall_fail = true;
      }
  in
  checki "no torture errors" 0 out.Torture.errors;
  checkb "writer aborted on Stalled" true (out.stalled_writers >= 1)

(* ------------------------------------------------------------------ *)
(* Citrus under faults: stretched delete windows and lock delays must
   not break the tree or let a reader touch reclaimed memory. *)

let test_citrus_faults () =
  isolated @@ fun () ->
  with_san (fun () ->
      let module C = Repro_citrus.Citrus_int.Epoch in
      Fault.configure ~seed:17L
        [ ("citrus.delete.window", 0.5); ("lock.spin.acquire", 0.05) ];
      let t = C.create () in
      let violations = San.violations () in
      let workers =
        List.init 3 (fun i ->
            Domain.spawn (fun () ->
                let h = C.register t in
                let rng = Repro_sync.Rng.create (Int64.of_int (40 + i)) in
                for _ = 1 to 400 do
                  let k = Repro_sync.Rng.int rng 32 in
                  match Repro_sync.Rng.int rng 3 with
                  | 0 -> ignore (C.insert h k k)
                  | 1 -> ignore (C.delete h k)
                  | _ -> ignore (C.contains h k)
                done;
                C.unregister h))
      in
      List.iter Domain.join workers;
      C.check_invariants t;
      checki "no sanitizer violations under faults" violations
        (San.violations ());
      checki "every retirement ran" 0
        (List.length (San.audit (C.sanitizer t)));
      checkb "retirements happened" true
        (List.assoc "reclaimed" (C.stats t) > 0))

(* ------------------------------------------------------------------ *)
(* The mutant table: one row per seeded bug and per control *)

let names rows = List.map (fun (r : Mutation.row) -> r.name) rows

let test_mutant_table () =
  let count kind =
    List.length
      (List.filter (fun (r : Mutation.row) -> r.kind = kind) Mutation.table)
  in
  checki "mutants" 17 (count Mutation.Mutant);
  checki "controls" 16 (count Mutation.Control);
  let all = names Mutation.table in
  checki "row names are unique" (List.length all)
    (List.length (List.sort_uniq compare all));
  List.iter
    (fun (r : Mutation.row) ->
      match (r.kind, r.bug) with
      | Mutation.Mutant, Some b ->
          checkb (r.name ^ ": registered bug.* point") true
            (String.starts_with ~prefix:"bug." b && Fault.find b <> None)
      | Mutation.Mutant, None -> ()
      | Mutation.Control, b ->
          checkb (r.name ^ ": a control arms no bug") true (b = None))
    Mutation.table;
  (* Every seeded bug in the code has exactly one mutant hunting it. *)
  List.iter
    (fun p ->
      let n = Fault.name p in
      if String.starts_with ~prefix:"bug." n then
        checki (n ^ " hunted once") 1
          (List.length
             (List.filter
                (fun (r : Mutation.row) -> r.bug = Some n)
                Mutation.table)))
    (Fault.points ())

let test_mutant_select () =
  let suites rows =
    List.sort_uniq compare (List.map (fun (r : Mutation.row) -> r.suite) rows)
  in
  let in_table_order rows =
    let rec sub xs ys =
      match (xs, ys) with
      | [], _ -> true
      | _, [] -> false
      | x :: xs', y :: ys' -> if x == y then sub xs' ys' else sub xs ys'
    in
    sub rows Mutation.table
  in
  let none = Mutation.select [] in
  checkb "no flag: the sanitizer suite alone" true
    (suites none = [ Mutation.Sanitizer ]);
  checki "no flag: 4 mutants + 4 controls" 8 (List.length none);
  let union = Mutation.select [ Mutation.Lockdep; Mutation.Chaos ] in
  checkb "two flags: the union" true
    (suites union = [ Mutation.Lockdep; Mutation.Chaos ]);
  checki "two flags: 6 + 6 rows" 12 (List.length union);
  checkb "selection keeps table order" true (in_table_order union);
  checkb "flag order is irrelevant" true
    (names union
    = names (Mutation.select [ Mutation.Chaos; Mutation.Lockdep ]));
  let model = Mutation.select ~controls:false [ Mutation.Model ] in
  checki "skip controls: 7 model mutants" 7 (List.length model);
  checkb "skip controls: mutants only" true
    (List.for_all (fun (r : Mutation.row) -> r.kind = Mutation.Mutant) model);
  checki "every suite: the whole table" (List.length Mutation.table)
    (List.length
       (Mutation.select
          Mutation.[ Sanitizer; Lockdep; Chaos; Model ]))

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* The docs cannot drift from the code: ROBUSTNESS.md names every row of
   the mutant table and every registered fault point. *)
let test_docs_name_everything () =
  let doc = In_channel.with_open_bin "../ROBUSTNESS.md" In_channel.input_all in
  let documented n = contains_sub doc ("`" ^ n ^ "`") in
  List.iter
    (fun n -> checkb (n ^ " in ROBUSTNESS.md") true (documented n))
    (names Mutation.table);
  List.iter
    (fun p ->
      let n = Fault.name p in
      if not (String.starts_with ~prefix:"test." n) then
        checkb (n ^ " in ROBUSTNESS.md") true (documented n))
    (Fault.points ())

let () =
  Alcotest.run "fault"
    [
      ( "fault-core",
        [
          Alcotest.test_case "deterministic from seed" `Quick test_determinism;
          Alcotest.test_case "rate extremes" `Quick test_rate_extremes;
          Alcotest.test_case "hit/fire counters" `Quick test_counters;
          Alcotest.test_case "unknown point is strict" `Quick
            test_unknown_point;
          Alcotest.test_case "parse_spec" `Quick test_parse_spec;
          Alcotest.test_case "disabled is invisible" `Quick
            test_disabled_is_invisible;
        ] );
      ( "defer",
        [ Alcotest.test_case "drain runs chained callbacks" `Quick test_drain ] );
      Stall_epoch.suite "epoch-rcu";
      Stall_urcu.suite "urcu";
      Stall_qsbr.suite "qsbr";
      ( "torture-harness",
        [
          Alcotest.test_case "warn stall end-to-end" `Quick test_torture_warn;
          Alcotest.test_case "fail stall end-to-end" `Quick test_torture_fail;
        ] );
      ( "mutant-table",
        [
          Alcotest.test_case "17 mutants, 16 controls" `Quick test_mutant_table;
          Alcotest.test_case "suite selection" `Quick test_mutant_select;
          Alcotest.test_case "ROBUSTNESS.md names every row and point" `Quick
            test_docs_name_everything;
        ] );
      ( "citrus-under-faults",
        [
          Alcotest.test_case "invariants hold, no use-after-reclaim" `Quick
            test_citrus_faults;
        ] );
    ]
