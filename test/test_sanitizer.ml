(* Reclamation sanitizer: shadow state machine, integration with the
   Reclaimer and the RCU flavours, read-side exception safety, and the mutation
   suite proving seeded grace-period bugs are detected (ROBUSTNESS.md,
   "Reclamation sanitizer"). *)

module San = Repro_sanitizer.Sanitizer
module Fault = Repro_fault.Fault
module Torture = Repro_rcu.Torture
module Mutation = Repro_mutants.Mutation
module Stall = Repro_rcu.Stall

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* The sanitizer switch is process-global; every test restores it. *)
let with_san f =
  let was = San.enabled () in
  San.arm ();
  Fun.protect ~finally:(fun () -> if not was then San.disarm ()) f

(* ------------------------------------------------------------------ *)
(* Shadow state machine *)

let test_state_machine () =
  with_san (fun () ->
      San.reset_violations ();
      let d = San.create "sm" in
      let s = San.register d in
      checkb "fresh record is Live" true (San.state s = San.Live);
      San.check s;
      (* Live: fine *)
      San.on_defer s ~gp:5;
      checkb "Deferred carries the enqueue cookie" true
        (San.state s = San.Deferred 5);
      San.check s;
      (* Deferred: the free has not run yet, touching is still legal *)
      San.on_reclaim ~gp:7 s;
      checkb "Reclaimed carries both cookies" true
        (San.state s = San.Reclaimed (5, 7));
      (match San.check ~slot:3 ~cookie:6 s with
      | () -> Alcotest.fail "touching a Reclaimed record must raise"
      | exception San.Violation rep ->
          checkb "kind" true (rep.San.kind = San.Use_after_reclaim);
          checki "node id" (San.id s) rep.San.node_id;
          Alcotest.(check string) "domain" "sm" rep.San.domain;
          checki "deferred gp" 5 rep.San.deferred_gp;
          checki "reclaimed gp" 7 rep.San.reclaimed_gp;
          checki "reader slot" 3 rep.San.reader_slot;
          checki "reader cookie" 6 rep.San.reader_cookie;
          checkb "cookie <= reclaimed_gp is the smoking gun" true
            (rep.San.reader_cookie <= rep.San.reclaimed_gp));
      (* [note] flags without raising; [observe] never flags. *)
      let v0 = San.violations () in
      San.note s;
      checki "note counts a violation" (v0 + 1) (San.violations ());
      San.observe s;
      checki "observe never counts a violation" (v0 + 1) (San.violations ());
      San.reset_violations ())

let test_double_free () =
  with_san (fun () ->
      San.reset_violations ();
      let d = San.create "df" in
      let s = San.register d in
      San.on_defer s ~gp:1;
      (match San.on_defer s ~gp:2 with
      | () -> Alcotest.fail "second on_defer must raise"
      | exception San.Violation rep ->
          checkb "double-enqueue is a double free" true
            (rep.San.kind = San.Double_free));
      San.on_reclaim ~gp:3 s;
      (match San.on_reclaim ~gp:4 s with
      | () -> Alcotest.fail "second on_reclaim must raise"
      | exception San.Violation rep ->
          checkb "double reclaim is a double free" true
            (rep.San.kind = San.Double_free));
      (* Manual reclamation that never went through a queue is fine. *)
      let s2 = San.register d in
      San.on_reclaim s2;
      checkb "Live -> Reclaimed tolerated" true
        (match San.state s2 with San.Reclaimed _ -> true | _ -> false);
      San.reset_violations ())

let test_leak_audit () =
  with_san (fun () ->
      let d = San.create "leak" in
      let a = San.register d in
      let b = San.register d in
      San.on_defer a ~gp:1;
      San.on_defer b ~gp:2;
      let reps = San.audit d in
      checki "two leaked deferrals" 2 (List.length reps);
      List.iter
        (fun r -> checkb "kind" true (r.San.kind = San.Leaked_deferral))
        reps;
      checkb "ordered by id" true
        (List.map (fun r -> r.San.node_id) reps
        = List.sort compare [ San.id a; San.id b ]);
      checki "deferred_count agrees" 2 (San.deferred_count d);
      San.on_reclaim ~gp:3 a;
      checki "reclaim empties the table" 1 (San.deferred_count d);
      San.on_reclaim ~gp:3 b;
      checki "audit now clean" 0 (List.length (San.audit d)))

(* ------------------------------------------------------------------ *)
(* Reclaimer integration: the shadow lifecycle through an inline-drained
   bag. *)

let test_defer_shadow_lifecycle () =
  with_san (fun () ->
      San.reset_violations ();
      let module R = Repro_rcu.Epoch_rcu in
      let module Rec = Repro_rcu.Reclaimer.Make (R) in
      let dom = San.create "defer" in
      let r = R.create () in
      let rc = Rec.create ~background:false r in
      let p = Rec.new_producer rc in
      let s = San.register dom in
      let ran = ref 0 in
      Rec.call_rcu rc p ~shadow:s (fun () -> incr ran);
      checkb "enqueue marks Deferred" true
        (match San.state s with San.Deferred _ -> true | _ -> false);
      (* Retiring the same object again is rejected before the bag is
         touched, so the free still runs exactly once. *)
      (match Rec.call_rcu rc p ~shadow:s (fun () -> incr ran) with
      | () -> Alcotest.fail "double retire must raise"
      | exception San.Violation rep ->
          checkb "rejected as double free" true
            (rep.San.kind = San.Double_free));
      checki "bag untouched by the rejected retire" 1 (Rec.pending rc);
      Rec.drain rc p;
      checki "callback ran exactly once" 1 !ran;
      checkb "drain marks Reclaimed" true
        (match San.state s with San.Reclaimed _ -> true | _ -> false);
      checki "no leaked deferrals" 0 (San.deferred_count dom);
      San.reset_violations ())

let test_defer_leak_detected () =
  with_san (fun () ->
      let module R = Repro_rcu.Epoch_rcu in
      let module Rec = Repro_rcu.Reclaimer.Make (R) in
      let dom = San.create "defer-leak" in
      let r = R.create () in
      let rc = Rec.create ~background:false r in
      let p = Rec.new_producer rc in
      let s = San.register dom in
      Rec.call_rcu rc p ~shadow:s ignore;
      checki "pending free visible to the audit" 1 (San.deferred_count dom);
      Rec.drain rc p;
      checki "drained bag leaks nothing" 0 (San.deferred_count dom))

(* ------------------------------------------------------------------ *)
(* Per-flavour: clean lifecycle and forced early reclaim *)

module FlavourTests (R : Repro_rcu.Rcu.S) = struct
  let test_clean () =
    with_san (fun () ->
        San.reset_violations ();
        let dom = San.create ("clean/" ^ R.name) in
        let r = R.create () in
        let th = R.register r in
        let s = San.register dom in
        R.read_lock th;
        San.check ~slot:(R.reader_slot th) ~cookie:(R.reader_cookie th) s;
        R.read_unlock th;
        San.on_defer s ~gp:(R.gp_cookie r);
        R.synchronize r;
        San.on_reclaim ~gp:(R.gp_cookie r) s;
        checki "no violations" 0 (San.violations ());
        checki "no leaks" 0 (San.deferred_count dom);
        R.unregister th)

  (* Reclaim with no grace period while a reader is inside its critical
     section: the reader's next touch must raise, and the report must
     name that reader's slot and entry cookie. *)
  let test_early_reclaim () =
    with_san (fun () ->
        San.reset_violations ();
        let dom = San.create ("early/" ^ R.name) in
        let r = R.create () in
        let th = R.register r in
        let s = San.register dom in
        R.read_lock th;
        let cookie = R.reader_cookie th in
        San.on_defer s ~gp:(R.gp_cookie r);
        San.on_reclaim ~gp:(R.gp_cookie r) s;
        (match
           San.check ~slot:(R.reader_slot th) ~cookie:(R.reader_cookie th) s
         with
        | () -> Alcotest.fail "early reclaim must be detected"
        | exception San.Violation rep ->
            checkb "kind" true (rep.San.kind = San.Use_after_reclaim);
            checki "names the detecting reader's slot" (R.reader_slot th)
              rep.San.reader_slot;
            checki "carries the section's entry cookie" cookie
              rep.San.reader_cookie);
        R.read_unlock th;
        R.unregister th;
        San.reset_violations ())

  (* A short sanitized torture run on the correct implementation must be
     silent: zero errors, zero violations, zero leaked deferrals. *)
  let flavour_key =
    String.map (function '_' -> '-' | c -> c) R.name

  let test_torture_clean () =
    let cfg =
      {
        Torture.default with
        readers = 2;
        writers = 2;
        slots = 2;
        updates_per_writer = 150;
        reader_delay = true;
        use_defer = true;
        sanitize = true;
      }
    in
    let out = Torture.run_flavour ~seed:11 flavour_key cfg in
    checki "errors" 0 out.Torture.errors;
    checki "violations" 0 out.Torture.violations;
    checki "leaks" 0 out.Torture.leaks

  let tests =
    [
      Alcotest.test_case ("clean lifecycle " ^ R.name) `Quick test_clean;
      Alcotest.test_case ("early reclaim " ^ R.name) `Quick test_early_reclaim;
      Alcotest.test_case ("sanitized torture " ^ R.name) `Quick
        test_torture_clean;
    ]
end

module Epoch_tests = FlavourTests (Repro_rcu.Epoch_rcu)
module Urcu_tests = FlavourTests (Repro_rcu.Urcu)
module Qsbr_tests = FlavourTests (Repro_rcu.Qsbr)

(* ------------------------------------------------------------------ *)
(* Mutation suite: every seeded grace-period bug must be caught, the
   clean controls must stay silent. *)

let run_suite kind =
  List.filter_map
    (fun (row : Mutation.row) ->
      if row.kind = kind then
        Some (Mutation.run { seed = 11; attempts = 12 } row)
      else None)
    (Mutation.select [ Mutation.Sanitizer ])

let test_mutants_caught () =
  let results = run_suite Mutation.Mutant in
  List.iter
    (fun (r : Mutation.result) ->
      checkb (r.row.name ^ " caught") true r.ok;
      checkb (r.row.name ^ " produced violations") true
        (r.outcome.detections > 0))
    results;
  checki "four mutants" 4 (List.length results);
  San.reset_violations ()

let test_controls_clean () =
  let results = run_suite Mutation.Control in
  List.iter
    (fun (r : Mutation.result) ->
      checki (r.row.name ^ " silent") 0 r.outcome.detections;
      checki (r.row.name ^ " no bug point hit") 0 r.fired)
    results;
  San.reset_violations ()

(* ------------------------------------------------------------------ *)
(* Read-side exception safety: a raise out of a Citrus read-side
   critical section must release the read lock. If it leaked, the
   two-child delete below would stall its grace period forever — the
   fail-mode watchdog turns that hang into a test failure. *)

let stall_guarded f =
  Stall.arm ~mode:Stall.Fail ~threshold_ns:2_000_000_000 ();
  Fun.protect ~finally:Stall.disarm f

let boom = ref false

module Bad_key = struct
  type t = int

  let compare a b = if !boom then failwith "boom" else compare (a : int) b
end

module TBad = Repro_citrus.Citrus.Make (Bad_key) (Repro_rcu.Epoch_rcu)

let test_exception_safety_compare () =
  boom := false;
  let t = TBad.create () in
  let h = TBad.register t in
  checkb "insert 2" true (TBad.insert h 2 2);
  checkb "insert 1" true (TBad.insert h 1 1);
  checkb "insert 3" true (TBad.insert h 3 3);
  boom := true;
  (match TBad.mem h 1 with
  | _ -> Alcotest.fail "comparison was supposed to raise"
  | exception Failure _ -> ());
  boom := false;
  (* Root has two children, so this delete pays a grace period; it can
     only complete if the raise above released the read lock. *)
  stall_guarded (fun () -> checkb "two-child delete" true (TBad.delete h 2));
  checkb "successor promoted" true (TBad.mem h 3);
  TBad.unregister h

module TInt = Repro_citrus.Citrus_int.Epoch

let test_exception_safety_fault_raise () =
  let t = TInt.create () in
  let h = TInt.register t in
  checkb "insert 2" true (TInt.insert h 2 2);
  checkb "insert 1" true (TInt.insert h 1 1);
  checkb "insert 3" true (TInt.insert h 3 3);
  Fault.configure ~seed:3L [];
  Fault.set "citrus.read.step" ~rate:1.0 ~action:Fault.Raise;
  (match TInt.mem h 1 with
  | _ -> Alcotest.fail "armed raise fault was supposed to fire"
  | exception Fault.Injected point ->
      Alcotest.(check string) "names the point" "citrus.read.step" point);
  Fault.disable_all ();
  stall_guarded (fun () -> checkb "two-child delete" true (TInt.delete h 2));
  TInt.unregister h

let test_parse_raise_action () =
  match Fault.parse_spec "citrus.read.step=0.5:raise" with
  | Ok ("citrus.read.step", rate, Some Fault.Raise) ->
      Alcotest.(check (float 1e-9)) "rate" 0.5 rate
  | Ok _ -> Alcotest.fail "parsed into the wrong spec"
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Sanitized Citrus stress: concurrent readers and two-child deletes on
   the correct implementation, sanitizer armed — must be silent. *)

let test_citrus_sanitized_clean () =
  with_san (fun () ->
      San.reset_violations ();
      let t = TInt.create () in
      let h0 = TInt.register t in
      for k = 0 to 63 do
        ignore (TInt.insert h0 k k)
      done;
      let stop = Atomic.make false in
      let readers =
        List.init 2 (fun i ->
            Domain.spawn (fun () ->
                let h = TInt.register t in
                let rng = Repro_sync.Rng.create (Int64.of_int (100 + i)) in
                while not (Atomic.get stop) do
                  ignore (TInt.mem h (Repro_sync.Rng.int rng 64))
                done;
                TInt.unregister h))
      in
      for _ = 1 to 4 do
        for k = 0 to 63 do
          ignore (TInt.delete h0 k);
          ignore (TInt.insert h0 k k)
        done
      done;
      Atomic.set stop true;
      List.iter Domain.join readers;
      TInt.unregister h0;
      checki "no violations on correct Citrus" 0 (San.violations ());
      checki "every retirement ran" 0
        (List.length (San.audit (TInt.sanitizer t))))

(* ------------------------------------------------------------------ *)
(* Baselines: rb_rcu's instrumented delete path, and the attach_shadow
   test hook on the GC-reclaimed structures. *)

let test_rb_rcu_sanitized () =
  with_san (fun () ->
      San.reset_violations ();
      let module T = Repro_baselines.Rb_rcu.Make (Repro_rcu.Epoch_rcu) in
      let t = T.create () in
      let h = T.register t in
      for k = 1 to 31 do
        ignore (T.insert h k k)
      done;
      for k = 8 to 24 do
        ignore (T.delete h k)
      done;
      checki "correct rb_rcu is silent" 0 (San.violations ());
      checkb "survivors intact" true (T.mem h 30);
      T.check_invariants t;
      T.unregister h)

let test_rcu_hash_shadow () =
  with_san (fun () ->
      San.reset_violations ();
      let module H = Repro_baselines.Rcu_hash in
      let t = H.create ~buckets:8 () in
      checkb "insert" true (H.insert t 1 "a");
      checkb "no shadow for absent key" true (H.attach_shadow t 99 = None);
      let sh = Option.get (H.attach_shadow t 1) in
      Alcotest.(check (option string)) "Live: reads fine" (Some "a")
        (H.contains t 1);
      San.on_defer sh ~gp:1;
      Alcotest.(check (option string)) "Deferred: reads fine" (Some "a")
        (H.contains t 1);
      San.on_reclaim ~gp:2 sh;
      (match H.contains t 1 with
      | _ -> Alcotest.fail "read of shadow-reclaimed node must raise"
      | exception San.Violation rep ->
          checkb "kind" true (rep.San.kind = San.Use_after_reclaim));
      San.reset_violations ())

let test_lazy_list_shadow () =
  with_san (fun () ->
      San.reset_violations ();
      let module L = Repro_baselines.Lazy_list in
      let t = L.create () in
      checkb "insert" true (L.insert t 5 "x");
      checkb "insert" true (L.insert t 9 "y");
      let sh = Option.get (L.attach_shadow t 5) in
      San.on_reclaim ~gp:1 sh;
      (* Key 9's traversal passes through node 5. *)
      (match L.contains t 9 with
      | _ -> Alcotest.fail "traversal through reclaimed node must raise"
      | exception San.Violation rep ->
          checkb "kind" true (rep.San.kind = San.Use_after_reclaim));
      San.reset_violations ())

(* ------------------------------------------------------------------ *)
(* Observability wiring *)

let test_trace_kind () =
  let module Trace = Repro_sync.Trace in
  Alcotest.(check string)
    "kind name" "sanitize_violation"
    (Trace.kind_to_string Trace.Sanitize_violation)

let () =
  Alcotest.run "sanitizer"
    [
      ( "state-machine",
        [
          Alcotest.test_case "lifecycle and violation report" `Quick
            test_state_machine;
          Alcotest.test_case "double free" `Quick test_double_free;
          Alcotest.test_case "leak audit" `Quick test_leak_audit;
        ] );
      ( "defer",
        [
          Alcotest.test_case "shadow lifecycle" `Quick
            test_defer_shadow_lifecycle;
          Alcotest.test_case "leak detection" `Quick test_defer_leak_detected;
        ] );
      ("epoch-rcu", Epoch_tests.tests);
      ("urcu", Urcu_tests.tests);
      ("qsbr", Qsbr_tests.tests);
      ( "mutation-suite",
        [
          Alcotest.test_case "all mutants caught" `Slow test_mutants_caught;
          Alcotest.test_case "controls clean" `Slow test_controls_clean;
        ] );
      ( "exception-safety",
        [
          Alcotest.test_case "raising compare releases the read lock" `Quick
            test_exception_safety_compare;
          Alcotest.test_case "raise-action fault releases the read lock"
            `Quick test_exception_safety_fault_raise;
          Alcotest.test_case "spec parses :raise" `Quick
            test_parse_raise_action;
        ] );
      ( "structures",
        [
          Alcotest.test_case "citrus sanitized stress is silent" `Slow
            test_citrus_sanitized_clean;
          Alcotest.test_case "rb_rcu sanitized deletes are silent" `Quick
            test_rb_rcu_sanitized;
          Alcotest.test_case "rcu_hash shadow hook" `Quick
            test_rcu_hash_shadow;
          Alcotest.test_case "lazy_list shadow hook" `Quick
            test_lazy_list_shadow;
        ] );
      ( "observability",
        [ Alcotest.test_case "trace kind" `Quick test_trace_kind ] );
    ]
