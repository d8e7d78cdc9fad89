(* Tests for both RCU implementations: API discipline, the RCU property
   (synchronize waits for pre-existing readers but not for later ones), and
   deferred reclamation ordering. Each behavioural test runs against both
   flavours via the functor below. *)

module Barrier = Repro_sync.Barrier

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

module Behaviour (R : Repro_rcu.Rcu.S) = struct
  let test_register_basics () =
    let r = R.create ~max_threads:2 () in
    let a = R.register r in
    let b = R.register r in
    Alcotest.check_raises "full" Repro_sync.Registry.Full (fun () ->
        ignore (R.register r));
    R.unregister a;
    let c = R.register r in
    R.unregister b;
    R.unregister c

  let test_read_nesting () =
    let r = R.create () in
    let th = R.register r in
    R.read_lock th;
    R.read_lock th;
    R.read_unlock th;
    R.read_unlock th;
    (* Quiescent again: synchronize from another registered thread must not
       block. *)
    R.synchronize r;
    R.unregister th

  let test_unlock_without_lock () =
    let r = R.create () in
    let th = R.register r in
    checkb "raises"
      true
      (match R.read_unlock th with
      | () -> false
      | exception Invalid_argument _ -> true);
    R.unregister th

  let test_unregister_inside_cs_rejected () =
    let r = R.create () in
    let th = R.register r in
    R.read_lock th;
    checkb "raises" true
      (match R.unregister th with
      | () -> false
      | exception Invalid_argument _ -> true);
    R.read_unlock th;
    R.unregister th

  let test_synchronize_no_readers () =
    let r = R.create () in
    let gp0 = R.grace_periods r in
    R.synchronize r;
    R.synchronize r;
    checki "grace periods counted" (gp0 + 2) (R.grace_periods r)

  (* The RCU property, blocking direction: a synchronize that starts while a
     reader is inside its critical section must not return before the reader
     leaves. *)
  let test_synchronize_waits_for_preexisting_reader () =
    let r = R.create () in
    let ready = Barrier.create 2 in
    let reader_done = Atomic.make false in
    let sync_returned = Atomic.make false in
    let reader =
      Domain.spawn (fun () ->
          let th = R.register r in
          R.read_lock th;
          Barrier.wait ready;
          (* Hold the critical section long enough for the synchronizer to
             be clearly waiting. *)
          Unix.sleepf 0.05;
          checkb "synchronize still blocked" false (Atomic.get sync_returned);
          Atomic.set reader_done true;
          R.read_unlock th;
          R.unregister th)
    in
    let syncer =
      Domain.spawn (fun () ->
          Barrier.wait ready;
          (* The reader is inside its critical section now. *)
          R.synchronize r;
          Atomic.set sync_returned true;
          checkb "reader finished before synchronize returned" true
            (Atomic.get reader_done))
    in
    Domain.join reader;
    Domain.join syncer

  (* Non-blocking direction: a reader that starts *after* synchronize does
     not block it. *)
  let test_synchronize_ignores_later_readers () =
    let r = R.create () in
    let stop = Atomic.make false in
    let churner =
      Domain.spawn (fun () ->
          let th = R.register r in
          while not (Atomic.get stop) do
            R.read_lock th;
            R.read_unlock th
          done;
          R.unregister th)
    in
    (* If synchronize waited for the ever-restarting reader stream, this
       would hang. *)
    for _ = 1 to 100 do
      R.synchronize r
    done;
    Atomic.set stop true;
    Domain.join churner

  (* Publication pattern: a writer retires a value, synchronizes, then
     invalidates it. Readers that took a reference inside a critical section
     must never observe the invalidation. *)
  let test_publication_safety () =
    let r = R.create () in
    let cell = Atomic.make (ref 1) in
    let violations = Atomic.make 0 in
    let stop = Atomic.make false in
    let reader () =
      let th = R.register r in
      while not (Atomic.get stop) do
        R.read_lock th;
        let v = Atomic.get cell in
        (* Anything reachable inside the critical section must still be
           valid (non-zero) until we leave it. *)
        if !v = 0 then Atomic.incr violations;
        Domain.cpu_relax ();
        if !v = 0 then Atomic.incr violations;
        R.read_unlock th
      done;
      R.unregister th
    in
    let writer () =
      let rec loop n =
        if n > 0 then begin
          let fresh = ref (n + 1) in
          let old = Atomic.exchange cell fresh in
          R.synchronize r;
          (* No reader can still hold [old]: "freeing" it is safe. *)
          old := 0;
          loop (n - 1)
        end
      in
      loop 300
    in
    let readers = List.init 2 (fun _ -> Domain.spawn reader) in
    let w = Domain.spawn writer in
    Domain.join w;
    Atomic.set stop true;
    List.iter Domain.join readers;
    checki "no use-after-free observed" 0 (Atomic.get violations)

  let test_concurrent_synchronizers () =
    let r = R.create () in
    let n = 4 in
    let per = 50 in
    let stop = Atomic.make false in
    let reader =
      Domain.spawn (fun () ->
          let th = R.register r in
          while not (Atomic.get stop) do
            R.read_lock th;
            Domain.cpu_relax ();
            R.read_unlock th
          done;
          R.unregister th)
    in
    let syncers =
      List.init n (fun _ ->
          Domain.spawn (fun () ->
              for _ = 1 to per do
                R.synchronize r
              done))
    in
    List.iter Domain.join syncers;
    Atomic.set stop true;
    Domain.join reader;
    checkb "grace periods all completed" true (R.grace_periods r >= n * per)

  (* --- Grace-period sequence numbers (read_gp_seq / poll /
     cond_synchronize) --- *)

  let test_gp_seq_advances () =
    let r = R.create () in
    let snap = R.read_gp_seq r in
    checkb "fresh snapshot not yet satisfied" false (R.poll r snap);
    R.synchronize r;
    checkb "satisfied after one grace period" true (R.poll r snap);
    (* A snapshot taken now demands a *future* grace period. *)
    checkb "new snapshot not satisfied by old GP" false
      (R.poll r (R.read_gp_seq r))

  (* poll must never report completion while a reader that pre-dates the
     snapshot is still inside its critical section: the only way
     [gp_completed] advances past the snapshot is a full scan, and that
     scan is blocked by the parked reader. *)
  let test_poll_never_early () =
    let r = R.create () in
    let ready = Barrier.create 2 in
    let release = Atomic.make false in
    let exited = Atomic.make false in
    let reader =
      Domain.spawn (fun () ->
          let th = R.register r in
          R.read_lock th;
          Barrier.wait ready;
          while not (Atomic.get release) do
            Domain.cpu_relax ()
          done;
          Atomic.set exited true;
          R.read_unlock th;
          R.unregister th)
    in
    Barrier.wait ready;
    (* The reader is parked inside its critical section. *)
    let snap = R.read_gp_seq r in
    let syncer = Domain.spawn (fun () -> R.synchronize r) in
    for _ = 1 to 5 do
      Unix.sleepf 0.01;
      checkb "poll false while pre-existing reader parked" false
        (R.poll r snap)
    done;
    Atomic.set release true;
    Domain.join reader;
    Domain.join syncer;
    checkb "poll true after grace period" true (R.poll r snap);
    checkb "reader had exited" true (Atomic.get exited)

  (* cond_synchronize after the grace period already elapsed must be a
     no-op: no new grace period is driven (the [grace_periods] counter
     ticks on every synchronize return, so a no-op leaves it alone). *)
  let test_cond_synchronize_elided () =
    let r = R.create () in
    let snap = R.read_gp_seq r in
    R.synchronize r;
    let gp0 = R.grace_periods r in
    R.cond_synchronize r snap;
    checki "elided: no extra grace period" gp0 (R.grace_periods r);
    (* An unsatisfied snapshot still forces a real synchronize. *)
    let fresh = R.read_gp_seq r in
    R.cond_synchronize r fresh;
    checki "unsatisfied snapshot drives a grace period" (gp0 + 1)
      (R.grace_periods r);
    checkb "and satisfies it" true (R.poll r fresh)

  (* The coalescing fast paths must not weaken the synchronize guarantee:
     several domains synchronizing at once (so most of them piggyback on
     a shared grace period) must all still wait out a pre-existing
     reader. Run with coalescing on and off: off, every call drives its
     own scan, the path `bench gp` measures as the baseline. *)
  let test_coalesced_synchronize_keeps_guarantee () =
    let keeps_guarantee coalescing =
      Repro_rcu.Rcu.Gp.set_coalescing coalescing;
      let n = 4 in
      let r = R.create () in
      let ready = Barrier.create (n + 1) in
      let reader_done = Atomic.make false in
      let early = Atomic.make 0 in
      let reader =
        Domain.spawn (fun () ->
            let th = R.register r in
            R.read_lock th;
            Barrier.wait ready;
            Unix.sleepf 0.05;
            Atomic.set reader_done true;
            R.read_unlock th;
            R.unregister th)
      in
      let syncers =
        List.init n (fun _ ->
            Domain.spawn (fun () ->
                Barrier.wait ready;
                for _ = 1 to 20 do
                  R.synchronize r;
                  if not (Atomic.get reader_done) then Atomic.incr early
                done))
      in
      List.iter Domain.join syncers;
      Domain.join reader;
      checki
        (Printf.sprintf
           "no synchronize returned before the pre-existing reader \
            (coalescing %b)"
           coalescing)
        0 (Atomic.get early)
    in
    Fun.protect
      ~finally:(fun () -> Repro_rcu.Rcu.Gp.set_coalescing true)
      (fun () -> List.iter keeps_guarantee [ true; false ])

  (* An uncontended synchronize allocates the same few words however wide
     the slot registry is: idle slots cost a load, not a backoff state.
     The 13-word ceiling catches a new per-call allocation without
     pinning the exact count. *)
  let test_synchronize_allocation_flat () =
    let words_per_sync max_threads =
      let r = R.create ~max_threads () in
      let th = R.register r in
      for _ = 1 to 20 do
        R.synchronize r
      done;
      let n = 200 in
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        R.synchronize r
      done;
      let w = Gc.minor_words () -. w0 in
      R.unregister th;
      Float.to_int (Float.round (w /. float_of_int n))
    in
    let small = words_per_sync 128 in
    let wide = words_per_sync 4096 in
    checki "same words at 128 and 4096 slots" small wide;
    checkb
      (Printf.sprintf "at most 13 words per synchronize (got %d)" small)
      true (small <= 13)

  let suite name =
    ( name,
      [
        Alcotest.test_case "register basics" `Quick test_register_basics;
        Alcotest.test_case "read nesting" `Quick test_read_nesting;
        Alcotest.test_case "unlock without lock" `Quick test_unlock_without_lock;
        Alcotest.test_case "unregister inside CS rejected" `Quick
          test_unregister_inside_cs_rejected;
        Alcotest.test_case "synchronize with no readers" `Quick
          test_synchronize_no_readers;
        Alcotest.test_case "waits for pre-existing reader" `Quick
          test_synchronize_waits_for_preexisting_reader;
        Alcotest.test_case "ignores later readers" `Quick
          test_synchronize_ignores_later_readers;
        Alcotest.test_case "publication safety" `Quick test_publication_safety;
        Alcotest.test_case "concurrent synchronizers" `Quick
          test_concurrent_synchronizers;
        Alcotest.test_case "gp_seq advances" `Quick test_gp_seq_advances;
        Alcotest.test_case "poll never early" `Quick test_poll_never_early;
        Alcotest.test_case "cond_synchronize elided" `Quick
          test_cond_synchronize_elided;
        Alcotest.test_case "coalesced synchronize keeps guarantee" `Quick
          test_coalesced_synchronize_keeps_guarantee;
        Alcotest.test_case "synchronize allocation flat in slots" `Quick
          test_synchronize_allocation_flat;
      ] )
end

module Epoch_behaviour = Behaviour (Repro_rcu.Epoch_rcu)
module Urcu_behaviour = Behaviour (Repro_rcu.Urcu)
module Qsbr_behaviour = Behaviour (Repro_rcu.Qsbr)

(* --- implementation-specific details --- *)

(* QSBR native API: free read side, explicit quiescent announcements. *)
let test_qsbr_native_api () =
  let module Q = Repro_rcu.Qsbr in
  let r = Q.create () in
  let th = Q.register r in
  (* An offline thread never blocks a grace period. *)
  Q.offline th;
  Q.synchronize r;
  Q.online th;
  (* Online thread that announces quiescence unblocks the writer. *)
  let ready = Barrier.create 2 in
  let done_ = Atomic.make false in
  let syncer =
    Domain.spawn (fun () ->
        let th2 = Q.register r in
        Barrier.wait ready;
        Q.synchronize r;
        Atomic.set done_ true;
        Q.unregister th2)
  in
  Barrier.wait ready;
  (* The writer flips the grace period and waits for us. *)
  Unix.sleepf 0.02;
  Q.quiescent_state th;
  Domain.join syncer;
  checkb "synchronize completed after quiescent_state" true (Atomic.get done_);
  Q.offline th;
  Q.unregister th

let test_qsbr_guards () =
  let module Q = Repro_rcu.Qsbr in
  let r = Q.create () in
  let th = Q.register r in
  Q.read_lock th;
  checkb "quiescent_state inside CS rejected" true
    (match Q.quiescent_state th with
    | () -> false
    | exception Invalid_argument _ -> true);
  checkb "offline inside CS rejected" true
    (match Q.offline th with
    | () -> false
    | exception Invalid_argument _ -> true);
  Q.read_unlock th;
  Q.unregister th

let test_epoch_read_depth () =
  let module E = Repro_rcu.Epoch_rcu in
  let r = E.create () in
  let th = E.register r in
  checki "depth 0" 0 (E.read_depth th);
  E.read_lock th;
  E.read_lock th;
  checki "depth 2" 2 (E.read_depth th);
  E.read_unlock th;
  checki "depth 1" 1 (E.read_depth th);
  E.read_unlock th;
  E.unregister th

let test_urcu_read_depth () =
  let module U = Repro_rcu.Urcu in
  let r = U.create () in
  let th = U.register r in
  checki "depth 0" 0 (U.read_depth th);
  U.read_lock th;
  U.read_lock th;
  checki "depth 2" 2 (U.read_depth th);
  U.read_unlock th;
  U.read_unlock th;
  checki "depth 0 again" 0 (U.read_depth th);
  U.unregister th

let test_implementations_list () =
  let names = List.map fst Repro_rcu.Rcu.implementations in
  Alcotest.check
    Alcotest.(list string)
    "registered flavours"
    [ "epoch-rcu"; "urcu"; "qsbr" ]
    names

(* --- Deferred callbacks on an inline-drained Reclaimer --- *)

module Defer_tests (R : Repro_rcu.Rcu.S) = struct
  module Rec = Repro_rcu.Reclaimer.Make (R)

  let inline ?batch r = Rec.create ?batch ~background:false r

  let test_batching () =
    let r = R.create () in
    let rc = inline ~batch:3 r in
    let p = Rec.new_producer rc in
    let log = ref [] in
    Rec.call_rcu rc p (fun () -> log := 1 :: !log);
    Rec.call_rcu rc p (fun () -> log := 2 :: !log);
    checki "pending below batch" 2 (Rec.pending rc);
    Alcotest.check Alcotest.(list int) "nothing ran yet" [] !log;
    Rec.call_rcu rc p (fun () -> log := 3 :: !log);
    checki "drained at batch" 0 (Rec.pending rc);
    Alcotest.check Alcotest.(list int) "FIFO order" [ 3; 2; 1 ] !log;
    checki "one drain" 1 (Rec.batches rc)

  let test_flush_empty () =
    let r = R.create () in
    let rc = inline r in
    let p = Rec.new_producer rc in
    let gp0 = R.grace_periods r in
    Rec.drain rc p;
    checki "no grace period for empty drain" gp0 (R.grace_periods r);
    checki "no drain counted" 0 (Rec.batches rc)

  (* A deferred callback must not run while any reader that pre-dates the
     drain-triggered grace period is still inside its critical section. *)
  let test_defer_respects_grace_period () =
    let r = R.create () in
    let ready = Barrier.create 2 in
    let freed = Atomic.make false in
    let observed_freed_inside_cs = Atomic.make false in
    let reader =
      Domain.spawn (fun () ->
          let th = R.register r in
          R.read_lock th;
          Barrier.wait ready;
          Unix.sleepf 0.05;
          if Atomic.get freed then Atomic.set observed_freed_inside_cs true;
          R.read_unlock th;
          R.unregister th)
    in
    let writer =
      Domain.spawn (fun () ->
          let rc = inline ~batch:1 r in
          let p = Rec.new_producer rc in
          Barrier.wait ready;
          Rec.call_rcu rc p (fun () -> Atomic.set freed true))
    in
    Domain.join reader;
    Domain.join writer;
    checkb "callback ran after reader exited" false
      (Atomic.get observed_freed_inside_cs);
    checkb "callback did run" true (Atomic.get freed)

  let suite name =
    ( name,
      [
        Alcotest.test_case "batching and order" `Quick test_batching;
        Alcotest.test_case "empty flush is free" `Quick test_flush_empty;
        Alcotest.test_case "respects grace period" `Quick
          test_defer_respects_grace_period;
      ] )
end

module Defer_epoch = Defer_tests (Repro_rcu.Epoch_rcu)
module Defer_urcu = Defer_tests (Repro_rcu.Urcu)
module Defer_qsbr = Defer_tests (Repro_rcu.Qsbr)

let () =
  Alcotest.run "rcu"
    [
      Epoch_behaviour.suite "epoch-rcu behaviour";
      Urcu_behaviour.suite "urcu behaviour";
      Qsbr_behaviour.suite "qsbr behaviour";
      ( "specifics",
        [
          Alcotest.test_case "epoch read_depth" `Quick test_epoch_read_depth;
          Alcotest.test_case "urcu read_depth" `Quick test_urcu_read_depth;
          Alcotest.test_case "qsbr native API" `Quick test_qsbr_native_api;
          Alcotest.test_case "qsbr guards" `Quick test_qsbr_guards;
          Alcotest.test_case "implementations list" `Quick
            test_implementations_list;
        ] );
      Defer_epoch.suite "defer over epoch-rcu";
      Defer_urcu.suite "defer over urcu";
      Defer_qsbr.suite "defer over qsbr";
    ]
