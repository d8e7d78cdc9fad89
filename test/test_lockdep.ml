(* Tests for the lockdep validator (lib/lockdep) and its integration:
   instrumented locks, RCU context rules, ordered tree-node classes, the
   Metrics/Trace surfacing, the lockdep-armed torture run, and the
   mutation suite proving the three seeded locking-protocol bugs are
   caught while clean runs stay silent. *)

module Lockdep = Repro_lockdep.Lockdep
module Spinlock = Repro_sync.Spinlock
module Metrics = Repro_sync.Metrics
module Trace = Repro_sync.Trace
module Torture = Repro_rcu.Torture
module Epoch = Repro_rcu.Epoch_rcu
module Mutation = Repro_mutants.Mutation
module Tree = Repro_citrus.Citrus_int.Epoch
module San = Repro_sanitizer.Sanitizer

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Arm around [f] from a quiescent point, restoring and clearing all
   lockdep state either way. *)
let with_lockdep f =
  Lockdep.reset ();
  Fun.protect ~finally:Lockdep.reset (fun () ->
      Repro_fault.Arm.(with_ lockdep) f)

let expect kind f =
  match f () with
  | _ -> Alcotest.failf "expected %s violation" (Lockdep.kind_to_string kind)
  | exception Lockdep.Violation r ->
      Alcotest.check Alcotest.string "violation kind"
        (Lockdep.kind_to_string kind)
        (Lockdep.kind_to_string r.Lockdep.kind);
      (* The structured report must always render. *)
      checkb "report renders" true
        (String.length (Lockdep.report_to_string r) > 0);
      r

(* --- core validator --- *)

let test_disarmed_silent () =
  Lockdep.reset ();
  checkb "disarmed" false (Lockdep.enabled ());
  let cls = Lockdep.new_class ~ordered:true Lockdep.Tree_node "test/disarmed" in
  let a = Spinlock.create ~cls () and b = Spinlock.create ~cls () in
  (* Inverted order with lockdep off: no contention, so this must simply
     succeed — and record nothing. *)
  Spinlock.acquire_ordered b 1;
  Spinlock.acquire_ordered a 0;
  Spinlock.release a;
  Spinlock.release b;
  checki "no checks recorded while disarmed" 0 (Lockdep.checks ());
  checki "no violations" 0 (Lockdep.violations ())

let test_order_inversion () =
  with_lockdep (fun () ->
      let cls =
        Lockdep.new_class ~ordered:true Lockdep.Tree_node "test/ordered"
      in
      let a = Spinlock.create ~cls () and b = Spinlock.create ~cls () in
      Spinlock.acquire_ordered b 1;
      let r =
        expect Lockdep.Order_inversion (fun () -> Spinlock.acquire_ordered a 0)
      in
      Alcotest.check Alcotest.string "names the class" (Lockdep.cls_name cls)
        r.Lockdep.cls;
      checkb "held stack reported" true (r.Lockdep.held <> []);
      (* The violating acquisition must not have taken the lock. *)
      checkb "refused lock not taken" false (Spinlock.is_locked a);
      Spinlock.release b;
      (* Ascending order within the class is the protocol: silent. *)
      Spinlock.acquire_ordered a 0;
      Spinlock.acquire_ordered b 1;
      Spinlock.release b;
      Spinlock.release a)

let test_dependency_cycle () =
  with_lockdep (fun () ->
      let ca = Lockdep.new_class Lockdep.Registry "test/cycle-a" in
      let cb = Lockdep.new_class Lockdep.Registry "test/cycle-b" in
      let a = Spinlock.create ~cls:ca () and b = Spinlock.create ~cls:cb () in
      (* Establish the dependency a -> b, fully released afterwards. *)
      Spinlock.acquire a;
      Spinlock.acquire b;
      Spinlock.release b;
      Spinlock.release a;
      (* The inverted nesting closes the cycle — flagged immediately, on
         one domain, with no second thread and no actual deadlock. *)
      Spinlock.acquire b;
      let r =
        expect Lockdep.Dependency_cycle (fun () -> Spinlock.acquire a)
      in
      checkb "names both classes" true
        (r.Lockdep.cls <> "" && r.Lockdep.other_cls <> "");
      Spinlock.release b)

let test_recursive_lock () =
  with_lockdep (fun () ->
      let cls = Lockdep.new_class Lockdep.Registry "test/recursive" in
      let l = Spinlock.create ~cls () in
      Spinlock.acquire l;
      ignore (expect Lockdep.Recursive_lock (fun () -> Spinlock.acquire l));
      Spinlock.release l)

let test_trylock_never_reports () =
  with_lockdep (fun () ->
      let cls =
        Lockdep.new_class ~ordered:true Lockdep.Tree_node "test/trylock"
      in
      let a = Spinlock.create ~cls () and b = Spinlock.create ~cls () in
      Spinlock.acquire_ordered b 1;
      (* Same inversion as above, as a trylock: cannot deadlock, so it is
         recorded but never reported. *)
      checkb "trylock succeeds" true (Spinlock.try_acquire a);
      Spinlock.release a;
      Spinlock.release b;
      checki "no violations" 0 (Lockdep.violations ()))

(* --- RCU context rules --- *)

let test_sync_in_read_section () =
  with_lockdep (fun () ->
      let r = Epoch.create () in
      let th = Epoch.register r in
      Epoch.read_lock th;
      let rep =
        expect Lockdep.Sync_in_read_section (fun () -> Epoch.synchronize r)
      in
      checki "reader slot" (Epoch.reader_slot th) rep.Lockdep.reader_slot;
      checki "nesting" 1 rep.Lockdep.reader_nesting;
      Epoch.read_unlock th;
      (* Legal outside the section. *)
      Epoch.synchronize r;
      Epoch.unregister th)

let test_cond_sync_checked_even_when_elided () =
  with_lockdep (fun () ->
      let r = Epoch.create () in
      let th = Epoch.register r in
      let snap = Epoch.read_gp_seq r in
      Epoch.synchronize r;
      (* The snapshot is now covered, so cond_synchronize would return
         without waiting — the context rule must fire anyway, or the bug
         hides until the unlucky schedule. *)
      Epoch.read_lock th;
      ignore
        (expect Lockdep.Sync_in_read_section (fun () ->
             Epoch.cond_synchronize r snap));
      Epoch.read_unlock th;
      Epoch.unregister th)

let test_unbalanced_read_unlock () =
  with_lockdep (fun () ->
      let r = Epoch.create () in
      let th = Epoch.register r in
      ignore
        (expect Lockdep.Unbalanced_read_unlock (fun () ->
             Epoch.read_unlock th));
      Epoch.unregister th)

(* --- clean integration runs must be silent --- *)

(* The sanitizer is armed too, so the tree retires what it unlinks: the
   successor walk's read section and the inline bag drains are validated
   as well. *)
let test_clean_citrus_silent () =
  with_lockdep @@ fun () ->
  Repro_fault.Arm.(with_ sanitizer) (fun () ->
      let san_violations = San.violations () in
      let t = Tree.create () in
      let domains =
        List.init 3 (fun i ->
            Domain.spawn (fun () ->
                let h = Tree.register t in
                for k = 0 to 200 do
                  ignore (Tree.insert h (((k * 7) + i) mod 101) k);
                  ignore (Tree.mem h (k mod 101));
                  ignore (Tree.delete h (((k * 3) + i) mod 101))
                done;
                Tree.unregister h))
      in
      List.iter Domain.join domains;
      checki "no violations" 0 (Lockdep.violations ());
      checkb "protocol was actually validated" true (Lockdep.checks () > 0);
      checki "no use-after-reclaim" san_violations (San.violations ());
      checki "every retirement ran" 0
        (List.length (San.audit (Tree.sanitizer t))))

let test_torture_lockdep_clean () =
  let cfg =
    {
      Torture.default with
      updates_per_writer = 60;
      nest = true;
      use_poll = true;
      lockdep = true;
    }
  in
  List.iter
    (fun f ->
      let out = Torture.run_flavour f cfg in
      checki (f ^ ": no torture errors") 0 out.Torture.errors;
      checki (f ^ ": lockdep silent") 0 out.Torture.lockdep_violations)
    Torture.flavours

(* --- mutation proof --- *)

let run_suite kind =
  List.filter_map
    (fun (row : Mutation.row) ->
      if row.kind = kind then
        Some (Mutation.run { seed = 42; attempts = 1 } row)
      else None)
    (Mutation.select [ Mutation.Lockdep ])

let test_lockdep_mutants_caught () =
  List.iter
    (fun (r : Mutation.result) -> checkb (r.row.name ^ " caught") true r.ok)
    (run_suite Mutation.Mutant)

let test_lockdep_controls_silent () =
  List.iter
    (fun (r : Mutation.result) ->
      checki (r.row.name ^ " silent") 0 r.outcome.detections;
      checki (r.row.name ^ " no bug point hit") 0 r.fired)
    (run_suite Mutation.Control)

(* --- observability surfacing --- *)

let test_metrics_rows () =
  with_lockdep (fun () ->
      Lockdep.reset_counters ();
      let l = Spinlock.create () in
      Spinlock.acquire l;
      Spinlock.release l;
      let snap = Metrics.snapshot () in
      let get k =
        match List.assoc_opt k snap with
        | Some v -> v
        | None -> Alcotest.failf "metric %s missing from snapshot" k
      in
      checkb "lockdep_checks counted" true (get "lockdep_checks" > 0.);
      Alcotest.check (Alcotest.float 0.) "lockdep_violations zero" 0.
        (get "lockdep_violations"))

let test_trace_records_violation () =
  with_lockdep (fun () ->
      Trace.configure ~capacity:256;
      Repro_fault.Arm.(with_ trace) (fun () ->
          let l = Spinlock.create () in
          try Spinlock.release l with Lockdep.Violation _ -> ());
      let events = Trace.dump () in
      checkb "lockdep_violation event recorded" true
        (List.exists
           (fun (e : Trace.event) -> e.Trace.kind = Trace.Lockdep_violation)
           events))

let () =
  Alcotest.run "lockdep"
    [
      ( "validator",
        [
          Alcotest.test_case "disarmed is silent" `Quick test_disarmed_silent;
          Alcotest.test_case "order inversion" `Quick test_order_inversion;
          Alcotest.test_case "dependency cycle (ABBA)" `Quick
            test_dependency_cycle;
          Alcotest.test_case "recursive lock" `Quick test_recursive_lock;
          Alcotest.test_case "trylock never reports" `Quick
            test_trylock_never_reports;
        ] );
      ( "rcu-context",
        [
          Alcotest.test_case "synchronize in read section" `Quick
            test_sync_in_read_section;
          Alcotest.test_case "cond_synchronize checked when elided" `Quick
            test_cond_sync_checked_even_when_elided;
          Alcotest.test_case "unbalanced read_unlock" `Quick
            test_unbalanced_read_unlock;
        ] );
      ( "clean-runs",
        [
          Alcotest.test_case "citrus stress silent" `Quick
            test_clean_citrus_silent;
          Alcotest.test_case "lockdep-armed torture silent" `Slow
            test_torture_lockdep_clean;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "all three caught" `Quick
            test_lockdep_mutants_caught;
          Alcotest.test_case "controls silent" `Quick
            test_lockdep_controls_silent;
        ] );
      ( "observability",
        [
          Alcotest.test_case "metrics rows" `Quick test_metrics_rows;
          Alcotest.test_case "trace kind" `Quick test_trace_records_violation;
        ] );
    ]
